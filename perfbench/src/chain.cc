#include "chain.h"

#include <algorithm>

#include "crypto/wire_format.h"
#include "spans.h"

namespace perfbench {

using csxa::Result;
using csxa::Status;

Result<csxa::crypto::BatchResponse> TimedSource::ReadBatch(
    const csxa::crypto::BatchRequest& request) const {
  const int now_inflight = inflight_.fetch_add(1) + 1;
  int seen = max_inflight_.load();
  while (now_inflight > seen &&
         !max_inflight_.compare_exchange_weak(seen, now_inflight)) {
  }
  SpanLog* log = ActiveLog();
  Result<csxa::crypto::BatchResponse> response = [&] {
    ScopedSpan span("net.read_batch");
    return inner_->ReadBatch(request);
  }();
  inflight_.fetch_sub(1);
  if (log != nullptr) {
    std::vector<uint8_t> frame;
    csxa::crypto::EncodeBatchRequest(request, &frame);
    log->request_bytes += frame.size();
    if (response.ok()) log->response_bytes += response.value().WireBytes();
  }
  return response;
}

Status CountingFetcher::Ensure(uint64_t begin, uint64_t end) {
  ++ensure_calls_;
  const uint64_t requests_before = inner_->requests();
  Status status = [&] {
    if (ensure_calls_ % kSampleEvery != 0) return inner_->Ensure(begin, end);
    ScopedSpan span("index.ensure");
    return inner_->Ensure(begin, end);
  }();
  if (std::min<uint64_t>(end, inner_->size()) > begin) {
    planner_calls_ += 1 + (inner_->requests() - requests_before);
  }
  return status;
}

Chain::Chain(const csxa::crypto::BatchSource* source, const Geometry& geometry,
             uint32_t version,
             std::shared_ptr<csxa::crypto::VerifiedDigestCache> cache)
    : soe_(geometry.key, geometry.layout, geometry.plaintext_size,
           geometry.chunk_count, version,
           csxa::crypto::SoeDecryptor::kDefaultDigestCacheCapacity,
           std::move(cache), geometry.backend),
      fetcher_(source, geometry.layout, geometry.plaintext_size,
               geometry.ciphertext_size, &soe_),
      counting_(&fetcher_) {}

Result<std::unique_ptr<Chain>> Chain::Open(
    const csxa::crypto::BatchSource* source, const Geometry& geometry,
    uint32_t version, std::shared_ptr<csxa::crypto::VerifiedDigestCache> cache,
    const std::vector<csxa::access::AccessRule>& rules,
    uint64_t pending_buffer_budget) {
  auto chain = std::unique_ptr<Chain>(
      new Chain(source, geometry, version, std::move(cache)));
  CSXA_ASSIGN_OR_RETURN(chain->nav_,
                        csxa::index::DocumentNavigator::OpenBuffer(
                            chain->fetcher_.verified_view(), &chain->counting_));
  csxa::access::RuleEvaluator::Options eval_options;
  eval_options.pending_buffer_budget = pending_buffer_budget;
  chain->reader_ = std::make_unique<csxa::pipeline::AuthorizedViewReader>(
      chain->nav_.get(), rules, eval_options,
      csxa::pipeline::DriveOptions{/*enable_skip=*/true, &chain->counting_});
  return chain;
}

ChainCounts Chain::Counts() const {
  ChainCounts c;
  c.ensure_calls = counting_.ensure_calls();
  c.planner_calls = counting_.planner_calls();
  c.bits_decoded = nav_->bits_read();
  for (const csxa::index::ByteInterval& interval : nav_->trace()) {
    c.bytes_consumed += interval.end - interval.begin;
  }
  c.requests = fetcher_.requests();
  c.wire_bytes = fetcher_.wire_bytes();
  c.bytes_fetched = fetcher_.bytes_fetched();
  c.gap_fragments_bridged = fetcher_.planner_stats().gap_fragments_bridged;
  c.bare_chunk_reads = fetcher_.bare_chunk_reads();
  c.proof_hashes_shipped = fetcher_.proof_hashes_shipped();
  c.digest_bytes_shipped = fetcher_.digest_bytes_shipped();
  c.drive = reader_->stats();
  c.eval = reader_->eval_stats();
  c.soe = soe_.counters();
  return c;
}

}  // namespace perfbench
