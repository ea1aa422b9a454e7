#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
thread_local SpanLog* tls_log = nullptr;
}  // namespace

SpanLog* ActiveLog() { return tls_log; }
void SetActiveLog(SpanLog* log) { tls_log = log; }

int SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.serve = serve_;
  span.thread = thread_;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last so the span excludes its own bookkeeping.
  spans_.back().start_ns = csxa::NowNs();
  return index;
}

void SpanLog::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = csxa::NowNs();
  open_.pop_back();
}

uint64_t SpanOverheadNs() {
  static const uint64_t overhead = [] {
    constexpr int kSamples = 4096;
    SpanLog log(0);
    log.spans().reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) log.End(log.Begin("calibration"));
    std::vector<uint64_t> d;
    for (const Span& s : log.spans()) d.push_back(s.duration_ns());
    std::nth_element(d.begin(), d.begin() + kSamples / 2, d.end());
    return d[kSamples / 2];
  }();
  return overhead;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const Span& s : spans) {
    const double ts_us =
        static_cast<double>(s.start_ns - origin_ns) / 1000.0;
    const double dur_us = static_cast<double>(s.duration_ns()) / 1000.0;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"serve\": %lld, \"parent\": %d}}",
                 first ? "" : ",\n", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name,
                 ts_us, dur_us, s.thread,
                 s.serve == Span::kNoServe ? -1LL
                                           : static_cast<long long>(s.serve),
                 s.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
