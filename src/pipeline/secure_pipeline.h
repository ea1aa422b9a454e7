#ifndef CSXA_PIPELINE_SECURE_PIPELINE_H_
#define CSXA_PIPELINE_SECURE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "common/status.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"
#include "index/secure_fetcher.h"
#include "pipeline/authorized_view_reader.h"

namespace csxa::pipeline {

/// Per-serve knobs, so skip/defer/full comparisons reuse one owner-side
/// build (parse/encode/encrypt happen once, in server::DocumentService).
struct ServeOptions {
  ServeOptions() = default;
  /// The common skip/budget pair; planner and cache knobs keep defaults.
  ServeOptions(bool skip, uint64_t budget)
      : enable_skip(skip), pending_buffer_budget(budget) {}

  bool enable_skip = true;
  /// Largest encoded subtree (bytes) the evaluator may buffer while its
  /// decision is pending; larger pending subtrees are deferred
  /// (skip-now-reread-later) when provably safe. UINT64_MAX never defers.
  uint64_t pending_buffer_budget = UINT64_MAX;
  /// Fetch-planner knobs of this serve (gap threshold, batch horizon).
  index::PlannerOptions planner;
  /// Verified-digest cache entries in the per-serve SOE decryptor; 0
  /// disables bare re-reads. Ignored when the serve is wired to a shared
  /// cache (see ServeStream::Open).
  size_t digest_cache_capacity = crypto::SoeDecryptor::kDefaultDigestCacheCapacity;
};

/// Cost-model counters of one serve (the quantities of the paper's
/// Section 5 / Figure 8 comparison).
struct ServeReport {
  std::string view;                      ///< Serialized authorized view.
  DriveStats drive;
  access::RuleEvaluator::Stats eval;
  uint64_t encoded_bytes = 0;            ///< Size of the encoded image.
  uint64_t wire_bytes = 0;               ///< Terminal→SOE channel traffic.
  uint64_t bytes_fetched = 0;            ///< Plaintext materialized.
  uint64_t requests = 0;                 ///< Batched terminal round trips.
  uint64_t segments = 0;                 ///< Ciphertext runs across batches.
  uint64_t bare_chunk_reads = 0;         ///< Chunk reads verified bare.
  uint64_t proof_hashes_shipped = 0;     ///< Merkle siblings the wire carried.
  uint64_t digest_bytes_shipped = 0;     ///< Encrypted ChunkDigest bytes.
  uint64_t gap_fragments_bridged = 0;    ///< Unneeded fragments coalesced in.
  uint64_t fetch_ns = 0;                 ///< Wall clock in terminal reads.
  uint64_t retries = 0;                  ///< Transport attempts beyond the 1st.
  uint64_t reconnects = 0;               ///< Connections re-established.
  uint64_t deadline_ns = 0;              ///< Per-request deadline in force.
  crypto::SoeDecryptor::Counters soe;    ///< Decrypt/hash work in the SOE.
  crypto::VerifiedDigestCache::Stats digest_cache;  ///< Bare-read economics.

  /// Cipher backend this serve decrypted with ("3des", "aes",
  /// "aes-portable") and whether it actually ran hardware crypto
  /// instructions on this machine.
  std::string backend;
  bool backend_hardware = false;
  /// Hash implementation ("sha-ni" or "portable") used for Merkle leaves,
  /// interior nodes and chunk digests.
  std::string hash_impl;
  /// Per-stage throughput over this serve's own wall clock (MB/s; 0 when
  /// the stage never ran): block decryption and ciphertext hashing.
  double decrypt_mb_s = 0.0;
  double hash_mb_s = 0.0;
  uint64_t serve_ns = 0;  ///< Wall clock of the whole drain (open to end).
};

/// The pull endpoint of one serve: owns the per-request SOE chain
/// (decryptor, fetcher, navigator, reader) and yields the authorized view
/// one event at a time, fetching/decrypting lazily as it goes. The server
/// layer opens one per server::SecureSession.
class ServeStream {
 public:
  /// Wires a complete per-serve SOE chain. `snapshot` is the owner's copy
  /// of the published store: geometry, cipher backend and the expected
  /// document version are read from it (out of band), while every byte is
  /// fetched through `source` — a document entry's live link, a remote
  /// terminal, or `&snapshot` itself — and passes the digest chain. A
  /// non-null `shared_cache` (stamped with the snapshot's version) replaces
  /// the private `options.digest_cache_capacity` cache. `source` must
  /// outlive the stream.
  static Result<std::unique_ptr<ServeStream>> Open(
      const crypto::BatchSource* source,
      const crypto::SecureDocumentStore& snapshot,
      const crypto::TripleDes::Key& key,
      const std::vector<access::AccessRule>& rules,
      const ServeOptions& options,
      std::shared_ptr<crypto::VerifiedDigestCache> shared_cache = nullptr);

  ServeStream(const ServeStream&) = delete;
  ServeStream& operator=(const ServeStream&) = delete;

  /// Next authorized-view event; `.end` true after the last one.
  Result<ViewItem> Next() { return reader_->Next(); }

  /// Drains the remaining view into a serialized string plus the
  /// cost-model counters of the serve — the one reporting path the demo,
  /// bench, tests and the server layer all share.
  Result<ServeReport> Drain();

  const access::RuleEvaluator::Stats& eval() const {
    return reader_->eval_stats();
  }
  const index::SecureFetcher& fetcher() const { return fetcher_; }

 private:
  ServeStream(const crypto::BatchSource* source,
              const crypto::SecureDocumentStore& snapshot,
              const crypto::TripleDes::Key& key, const ServeOptions& options,
              std::shared_ptr<crypto::VerifiedDigestCache> shared_cache)
      : soe_(key, snapshot.layout(), snapshot.plaintext_size(),
             snapshot.chunk_count(), snapshot.version(),
             options.digest_cache_capacity, std::move(shared_cache),
             snapshot.backend()),
        fetcher_(source, snapshot.layout(), snapshot.plaintext_size(),
                 snapshot.ciphertext().size(), &soe_, options.planner) {}

  crypto::SoeDecryptor soe_;
  index::SecureFetcher fetcher_;
  std::unique_ptr<index::DocumentNavigator> nav_;
  std::unique_ptr<AuthorizedViewReader> reader_;
};

}  // namespace csxa::pipeline

#endif  // CSXA_PIPELINE_SECURE_PIPELINE_H_
