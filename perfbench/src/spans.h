#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace perfbench {

/// One timed call into a layer, recorded on the benchmark's side of the
/// layer boundary (the program itself carries no instrumentation).
struct Span {
  const char* name = "";  ///< Static layer-qualified name ("index.ensure").
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;    ///< Index of the enclosing span in the same log.
  uint32_t serve = kNoServe;
  uint32_t thread = 0;

  static constexpr uint32_t kNoServe = UINT32_MAX;
  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans and byte tallies of one client thread, kept in memory until the
/// run ends. Not thread-safe: each client thread owns one and installs it
/// as the thread's active log, which the layer decorators write to.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  int Begin(const char* name);
  void End(int index);

  void set_serve(uint32_t serve) { serve_ = serve; }
  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Terminal traffic of the current serve, tallied by the source
  /// decorator (request frames as encoded, responses as WireBytes()).
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;

 private:
  uint32_t thread_;
  uint32_t serve_ = Span::kNoServe;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// The calling thread's active log; null when tracing is off, which makes
/// every ScopedSpan a no-op.
SpanLog* ActiveLog();
void SetActiveLog(SpanLog* log);

/// RAII span on the active log (nothing when no log is installed).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : log_(ActiveLog()) {
    if (log_ != nullptr) index_ = log_->Begin(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

/// What an empty span measures on this machine (the clock read and the
/// bookkeeping inside the timed interval), calibrated once per process.
/// Folding subtracts it from every span, which matters for the sampled
/// Ensure calls: they take tens of nanoseconds each.
uint64_t SpanOverheadNs();

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, one
/// track per client thread), loadable in Perfetto or chrome://tracing.
/// Timestamps are relative to `origin_ns`.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      uint64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
