#include "pipeline/secure_pipeline.h"

#include <utility>

#include "common/clock.h"
#include "xml/serializer.h"

namespace csxa::pipeline {

Result<std::unique_ptr<ServeStream>> ServeStream::Open(
    const crypto::BatchSource* source,
    const crypto::SecureDocumentStore& snapshot,
    const crypto::TripleDes::Key& key,
    const std::vector<access::AccessRule>& rules, const ServeOptions& options,
    std::shared_ptr<crypto::VerifiedDigestCache> shared_cache) {
  auto stream = std::unique_ptr<ServeStream>(new ServeStream(
      source, snapshot, key, options, std::move(shared_cache)));
  CSXA_ASSIGN_OR_RETURN(
      stream->nav_,
      index::DocumentNavigator::OpenBuffer(stream->fetcher_.verified_view(),
                                           &stream->fetcher_));
  access::RuleEvaluator::Options eval_options;
  eval_options.pending_buffer_budget = options.pending_buffer_budget;
  stream->reader_ = std::make_unique<AuthorizedViewReader>(
      stream->nav_.get(), rules, eval_options,
      DriveOptions{options.enable_skip, &stream->fetcher_});
  return stream;
}

Result<ServeReport> ServeStream::Drain() {
  const uint64_t t0 = NowNs();
  xml::SerializingHandler serializer;
  while (true) {
    CSXA_ASSIGN_OR_RETURN(ViewItem item, Next());
    if (item.end) break;
    serializer.Feed(item.event, item.depth);
  }
  const uint64_t serve_ns = NowNs() - t0;

  ServeReport report;
  report.view = serializer.output();
  report.drive = reader_->stats();
  report.eval = reader_->eval_stats();
  report.encoded_bytes = fetcher_.size();
  report.wire_bytes = fetcher_.wire_bytes();
  report.bytes_fetched = fetcher_.bytes_fetched();
  report.requests = fetcher_.requests();
  report.segments = fetcher_.segments();
  report.bare_chunk_reads = fetcher_.bare_chunk_reads();
  report.proof_hashes_shipped = fetcher_.proof_hashes_shipped();
  report.digest_bytes_shipped = fetcher_.digest_bytes_shipped();
  report.gap_fragments_bridged =
      fetcher_.planner_stats().gap_fragments_bridged;
  report.fetch_ns = fetcher_.fetch_ns();
  report.retries = fetcher_.retries();
  report.reconnects = fetcher_.reconnects();
  report.deadline_ns = fetcher_.deadline_ns();
  report.soe = soe_.counters();
  report.digest_cache = soe_.cache_stats();
  report.backend = soe_.backend_name();
  report.backend_hardware = soe_.backend_hardware_accelerated();
  report.hash_impl = crypto::Sha1::ImplementationName();
  report.serve_ns = serve_ns;
  auto mb_s = [](uint64_t bytes, uint64_t ns) {
    return ns == 0 ? 0.0
                   : static_cast<double>(bytes) * 1e9 /
                         (static_cast<double>(ns) * 1e6);
  };
  report.decrypt_mb_s = mb_s(
      report.soe.bytes_decrypted + report.soe.digest_bytes_decrypted,
      report.soe.decrypt_ns);
  report.hash_mb_s = mb_s(report.soe.bytes_hashed, report.soe.hash_ns);
  return report;
}

}  // namespace csxa::pipeline
