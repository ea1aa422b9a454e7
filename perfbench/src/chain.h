#ifndef PERFBENCH_CHAIN_H_
#define PERFBENCH_CHAIN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "access/access_rule.h"
#include "common/status.h"
#include "crypto/cipher_backend.h"
#include "crypto/digest_cache.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"
#include "index/secure_fetcher.h"
#include "pipeline/authorized_view_reader.h"

namespace perfbench {

/// Timing decorator of the terminal link: every ReadBatch becomes a
/// "net.read_batch" span on the caller's active log, the request frame and
/// response wire bytes are tallied there, and concurrent calls are counted
/// (the high-water mark is how many serves share the link at once).
class TimedSource : public csxa::crypto::BatchSource {
 public:
  explicit TimedSource(std::shared_ptr<const csxa::crypto::BatchSource> inner)
      : inner_(std::move(inner)) {}

  csxa::Result<csxa::crypto::BatchResponse> ReadBatch(
      const csxa::crypto::BatchRequest& request) const override;
  TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }
  int max_inflight() const { return max_inflight_.load(); }

 private:
  std::shared_ptr<const csxa::crypto::BatchSource> inner_;
  mutable std::atomic<int> inflight_{0};
  mutable std::atomic<int> max_inflight_{0};
};

/// Counting decorator of the navigator's fetcher. Every Ensure is counted;
/// one in `kSampleEvery` is timed as an "index.ensure" span (timing all of
/// them doubles a serve). Planner calls are derived from the fetcher's
/// public request counter: a non-empty Ensure plans once per round trip it
/// issues plus the final plan that finds the demand held.
class CountingFetcher : public csxa::index::Fetcher {
 public:
  static constexpr uint64_t kSampleEvery = 64;

  explicit CountingFetcher(csxa::index::SecureFetcher* inner)
      : inner_(inner) {}

  csxa::Status Ensure(uint64_t begin, uint64_t end) override;
  void HintWanted(uint64_t begin, uint64_t end) override {
    inner_->HintWanted(begin, end);
  }
  void HintExcluded(uint64_t begin, uint64_t end) override {
    inner_->HintExcluded(begin, end);
  }
  void HintStreamAll() override { inner_->HintStreamAll(); }
  uint64_t preferred_alignment() const override {
    return inner_->preferred_alignment();
  }
  uint64_t bytes_fetched() const override { return inner_->bytes_fetched(); }

  uint64_t ensure_calls() const { return ensure_calls_; }
  uint64_t planner_calls() const { return planner_calls_; }

 private:
  csxa::index::SecureFetcher* inner_;
  uint64_t ensure_calls_ = 0;
  uint64_t planner_calls_ = 0;
};

/// What the SOE needs to know about one published document version: the
/// geometry of its store and the key material delivered out of band.
struct Geometry {
  csxa::crypto::ChunkLayout layout;
  uint64_t plaintext_size = 0;
  uint64_t ciphertext_size = 0;
  uint64_t chunk_count = 0;
  csxa::crypto::TripleDes::Key key{};
  csxa::crypto::CipherBackendKind backend =
      csxa::crypto::CipherBackendKind::k3Des;
};

/// Work counters of one serve through the chain.
struct ChainCounts {
  uint64_t ensure_calls = 0;
  uint64_t planner_calls = 0;
  uint64_t bits_decoded = 0;
  uint64_t bytes_consumed = 0;  ///< Navigator byte intervals actually read.
  uint64_t requests = 0;
  uint64_t wire_bytes = 0;
  uint64_t bytes_fetched = 0;
  uint64_t gap_fragments_bridged = 0;
  uint64_t bare_chunk_reads = 0;
  uint64_t proof_hashes_shipped = 0;
  uint64_t digest_bytes_shipped = 0;
  csxa::pipeline::DriveStats drive;
  csxa::access::RuleEvaluator::Stats eval;
  csxa::crypto::SoeDecryptor::Counters soe;
};

/// The SOE serve chain rebuilt from public types, exactly as
/// pipeline::ServeStream wires it (SoeDecryptor → SecureFetcher →
/// DocumentNavigator::OpenBuffer → AuthorizedViewReader), with the
/// counting fetcher spliced between the navigator/reader and the
/// SecureFetcher. Its views, requests and wire bytes are checked against
/// SecureSession's before any per-layer number is reported.
class Chain {
 public:
  static csxa::Result<std::unique_ptr<Chain>> Open(
      const csxa::crypto::BatchSource* source, const Geometry& geometry,
      uint32_t version,
      std::shared_ptr<csxa::crypto::VerifiedDigestCache> cache,
      const std::vector<csxa::access::AccessRule>& rules,
      uint64_t pending_buffer_budget);

  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  csxa::Result<csxa::pipeline::ViewItem> Next() { return reader_->Next(); }
  ChainCounts Counts() const;
  csxa::crypto::VerifiedDigestCache::Stats cache_stats() const {
    return soe_.cache_stats();
  }

 private:
  Chain(const csxa::crypto::BatchSource* source, const Geometry& geometry,
        uint32_t version,
        std::shared_ptr<csxa::crypto::VerifiedDigestCache> cache);

  csxa::crypto::SoeDecryptor soe_;
  csxa::index::SecureFetcher fetcher_;
  CountingFetcher counting_;
  std::unique_ptr<csxa::index::DocumentNavigator> nav_;
  std::unique_ptr<csxa::pipeline::AuthorizedViewReader> reader_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHAIN_H_
