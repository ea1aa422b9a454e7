// servebench: the serve benchmark of csxa. Runs one named workload from a
// seed for a fixed time, byte-checks every served view against a direct
// SAX reference, and prints one JSON result line. `--trace 0` reports the
// end-to-end metrics; `--trace 1` rebuilds the SOE chain from public types
// with timing/counting decorators at each layer boundary and reports the
// per-layer metrics plus a Chrome trace of the run.
//
// Usage: servebench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-dir DIR]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "access/rule_evaluator.h"
#include "bench/load_harness.h"
#include "chain.h"
#include "common/clock.h"
#include "crypto/digest_cache.h"
#include "index/decoder.h"
#include "index/encoder.h"
#include "spans.h"
#include "workload.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

using csxa::NowNs;
using csxa::Result;
using csxa::Status;
using csxa::StatusCode;

/// Set-ups timed in an end-to-end run: this many before the measured
/// loop, then more after it, at least kSetupsAfter and for at least
/// kSetupsAfterNs, so the reported median samples the host at both ends of
/// the run rather than at its start only.
constexpr int kSetupsBefore = 2;
constexpr int kSetupsAfter = 1;
constexpr uint64_t kSetupsAfterNs = 2'000'000'000;
/// Completed serves an end-to-end run needs, so that at least 10 latency
/// samples lie beyond p90; the loop runs past --seconds until it has them.
constexpr uint64_t kMinServes = 100;
constexpr int kIsolationRepeats = 3;
/// Update() sample of a workload without in-loop churn: whole rounds over
/// the documents, at least this many and until this much time has passed.
constexpr int kUpdateRounds = 3;
constexpr uint64_t kUpdateRoundsNs = 1'000'000'000;
constexpr int kMaxAttempts = 3;
constexpr uint64_t kMinDetailSpanNs = 10'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank quantile; 0 for an empty sample.
uint64_t Quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---------------------------------------------------------------------------
// One serve, through either the service's SecureSession or the rebuilt chain.

/// An open serve: the pull endpoint plus what the checks need.
class ServeHandle {
 public:
  virtual ~ServeHandle() = default;
  virtual Result<csxa::pipeline::ViewItem> Next() = 0;
  virtual uint32_t version() const = 0;
  virtual uint64_t peak_buffered_bytes() const = 0;
};

class SessionHandle : public ServeHandle {
 public:
  explicit SessionHandle(std::unique_ptr<csxa::server::SecureSession> s)
      : session_(std::move(s)) {}
  Result<csxa::pipeline::ViewItem> Next() override { return session_->Next(); }
  uint32_t version() const override { return session_->version(); }
  uint64_t peak_buffered_bytes() const override {
    return session_->stream().eval().peak_buffered_bytes;
  }

 private:
  std::unique_ptr<csxa::server::SecureSession> session_;
};

class ChainHandle : public ServeHandle {
 public:
  ChainHandle(std::unique_ptr<Chain> chain, uint32_t version)
      : chain_(std::move(chain)), version_(version) {}
  Result<csxa::pipeline::ViewItem> Next() override { return chain_->Next(); }
  uint32_t version() const override { return version_; }
  uint64_t peak_buffered_bytes() const override {
    return chain_->Counts().eval.peak_buffered_bytes;
  }
  const Chain& chain() const { return *chain_; }

 private:
  std::unique_ptr<Chain> chain_;
  uint32_t version_;
};

using Opener = std::function<Result<std::unique_ptr<ServeHandle>>(
    const Request& request)>;
/// Publishes the next version of a document; receives the Update() time.
using Bumper = std::function<Status(uint32_t doc, uint64_t* ns)>;
/// Called after every attempt with the handle that ran it.
using AttemptHook = std::function<void(const ServeHandle& handle)>;

struct ServeOutcome {
  bool completed = false;
  bool failed = false;  ///< Outside the contract, or a wrong view.
  uint64_t latency_ns = 0;
  uint64_t ttfv_ns = 0;
  uint32_t stale = 0;
  uint64_t peak_buffered_bytes = 0;
  bool updated = false;
  uint64_t update_ns = 0;
  std::string error;
};

/// The transport's retry ladder ran dry: a typed error the contract
/// allows, so the serve is retried.
bool Retryable(const Status& st) {
  return st.code() == StatusCode::kUnavailable ||
         st.code() == StatusCode::kDeadlineExceeded;
}

/// Runs one request closed loop: open, pull every view event (publishing
/// the request's Update between two pulls when it carries one), byte-check
/// the view against the reference of the version served. A stale
/// rejection after this serve's own Update, or a retryable transport
/// error from open() or Next(), is retried, timed from the first attempt;
/// any other error, a wrong view, or running out of attempts fails the
/// serve.
ServeOutcome ServeOnce(const Inputs& in, const Request& req,
                       const Opener& open, const Bumper& bump,
                       const AttemptHook& after_attempt) {
  ScopedSpan serve_span("serve");
  ServeOutcome out;
  const uint64_t t0 = NowNs();
  bool update_pending = req.update_at_pull >= 0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto handle = open(req);
    if (!handle.ok()) {
      if (Retryable(handle.status())) continue;
      out.failed = true;
      out.error = handle.status().ToString();
      return out;
    }
    ServeHandle& h = *handle.value();
    csxa::xml::SerializingHandler serializer;
    Status failure = Status::OK();
    bool bumped = false;
    int32_t pulls = 0;
    out.ttfv_ns = 0;
    while (true) {
      if (update_pending && pulls == req.update_at_pull) {
        update_pending = false;
        bumped = true;
        Status st = bump(req.doc, &out.update_ns);
        out.updated = true;
        if (!st.ok()) {
          out.failed = true;
          out.error = "update: " + st.ToString();
          return out;
        }
      }
      Result<csxa::pipeline::ViewItem> item = [&] {
        ScopedSpan span("pipeline.next");
        return h.Next();
      }();
      if (!item.ok()) {
        failure = item.status();
        break;
      }
      if (out.ttfv_ns == 0) out.ttfv_ns = NowNs() - t0;
      if (item.value().end) break;
      {
        ScopedSpan span("xml.serialize");
        serializer.Feed(item.value().event, item.value().depth);
      }
      ++pulls;
    }
    if (after_attempt) after_attempt(h);
    if (!failure.ok()) {
      if (bumped && failure.code() == StatusCode::kIntegrityError) {
        ++out.stale;  // Failed closed on our own bump: retry cold.
        continue;
      }
      if (Retryable(failure)) continue;
      out.failed = true;
      out.error = failure.ToString();
      return out;
    }
    out.latency_ns = NowNs() - t0;
    out.peak_buffered_bytes = h.peak_buffered_bytes();
    const std::string& expected =
        in.views[req.doc][in.ContentOf(h.version())][req.role];
    if (serializer.output() != expected) {
      out.failed = true;
      out.error = "view mismatch";
    } else {
      out.completed = true;
    }
    return out;
  }
  out.failed = true;
  out.error = "retries exhausted";
  return out;
}

/// Closed-loop results of the client threads.
struct LoopTally {
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> ttfv_ns;
  std::vector<uint64_t> update_ns;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t stale = 0;
  uint64_t peak_buffered_bytes = 0;
  uint64_t wall_ns = 0;
  std::string first_error;

  void Add(const ServeOutcome& o) {
    ++attempted;
    stale += o.stale;
    if (o.updated) {
      ++attempted;
      update_ns.push_back(o.update_ns);
    }
    peak_buffered_bytes = std::max(peak_buffered_bytes, o.peak_buffered_bytes);
    if (o.completed) {
      ++completed;
      latency_ns.push_back(o.latency_ns);
      ttfv_ns.push_back(o.ttfv_ns);
    }
    if (o.failed) {
      ++failed;
      if (first_error.empty()) first_error = o.error;
    }
  }
  void Merge(const LoopTally& t) {
    latency_ns.insert(latency_ns.end(), t.latency_ns.begin(), t.latency_ns.end());
    ttfv_ns.insert(ttfv_ns.end(), t.ttfv_ns.begin(), t.ttfv_ns.end());
    update_ns.insert(update_ns.end(), t.update_ns.begin(), t.update_ns.end());
    attempted += t.attempted;
    completed += t.completed;
    failed += t.failed;
    stale += t.stale;
    peak_buffered_bytes = std::max(peak_buffered_bytes, t.peak_buffered_bytes);
    if (first_error.empty()) first_error = t.first_error;
  }
};

/// Hooks of a closed loop, called on the client thread around each request
/// (with its sequence index) and after each attempt.
struct ClientHooks {
  std::function<void(uint32_t thread, uint64_t index)> before;
  std::function<void(uint32_t thread, uint64_t index, const ServeOutcome&)>
      after;
  std::function<void(uint32_t thread, const ServeHandle&)> attempt;
};

/// Runs `clients` closed-loop threads over the seeded sequence until
/// `seconds` have passed and at least `min_requests` were taken.
LoopTally RunLoop(const Inputs& in, int seconds, uint64_t min_requests,
                  const Opener& open, const Bumper& bump,
                  const ClientHooks& hooks) {
  std::atomic<uint64_t> next{0};
  const int clients = in.spec->clients;
  std::vector<LoopTally> tallies(static_cast<size_t>(clients));
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds) * 1'000'000'000ULL;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      const uint32_t thread = static_cast<uint32_t>(c + 1);
      AttemptHook hook;
      if (hooks.attempt) {
        hook = [&](const ServeHandle& h) { hooks.attempt(thread, h); };
      }
      while (true) {
        const uint64_t i = next.fetch_add(1);
        if (i >= min_requests && NowNs() >= deadline) break;
        if (hooks.before) hooks.before(thread, i);
        ServeOutcome o = ServeOnce(in, in.At(i), open, bump, hook);
        if (hooks.after) hooks.after(thread, i, o);
        tallies[static_cast<size_t>(c)].Add(o);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopTally total;
  for (const LoopTally& t : tallies) total.Merge(t);
  total.wall_ns = NowNs() - t0;
  return total;
}

// ---------------------------------------------------------------------------
// Set-up: publish, start the terminal, warm the shared cache.

Opener SessionOpener(const Inputs& in, const Deployment& dep) {
  return [&in, &dep](const Request& r) -> Result<std::unique_ptr<ServeHandle>> {
    csxa::pipeline::ServeOptions opts;
    opts.pending_buffer_budget = kPendingBufferBudget;
    CSXA_ASSIGN_OR_RETURN(
        auto session,
        dep.service->OpenSession(in.doc_ids[r.doc], in.rules[r.doc][r.role],
                                 opts));
    return std::unique_ptr<ServeHandle>(new SessionHandle(std::move(session)));
  };
}

Status BumpVersion(const Inputs& in, const Deployment& dep, uint32_t doc,
                   uint64_t* ns, uint32_t* new_version) {
  const std::string& id = in.doc_ids[doc];
  CSXA_ASSIGN_OR_RETURN(uint32_t version, dep.service->CurrentVersion(id));
  const uint64_t t0 = NowNs();
  CSXA_RETURN_NOT_OK(dep.service->Update(id, in.xml[doc][in.ContentOf(version + 1)]));
  *ns = NowNs() - t0;
  if (new_version != nullptr) *new_version = version + 1;
  return Status::OK();
}

/// Re-publishes every document in whole rounds, with no serve running, and
/// records each round's mean Update() latency. Documents of different sizes
/// would otherwise put the median on the step between two size classes
/// (paper_mix updates its 1.5 and its 2.5 MiB documents equally often);
/// every round holds the same mix, so its mean is a steady sample.
void UpdateRounds(const Inputs& in, const Deployment& dep,
                  std::vector<uint64_t>* update_ns, uint64_t* attempted,
                  uint64_t* failed) {
  const uint64_t t0 = NowNs();
  for (int round = 0;
       round < kUpdateRounds || NowNs() - t0 < kUpdateRoundsNs;
       ++round) {
    uint64_t sum_ns = 0, updated = 0;
    for (uint32_t doc = 0; doc < in.doc_ids.size(); ++doc) {
      uint64_t ns = 0;
      ++*attempted;
      if (BumpVersion(in, dep, doc, &ns, nullptr).ok()) {
        sum_ns += ns;
        ++updated;
      } else {
        ++*failed;
      }
    }
    if (updated > 0) update_ns->push_back(sum_ns / updated);
  }
}

/// Every (document, role) class once, in a fixed order.
std::vector<Request> Classes(const Inputs& in) {
  std::vector<Request> classes;
  for (uint32_t d = 0; d < in.doc_ids.size(); ++d) {
    for (uint32_t r = 0; r < in.spec->roles.size(); ++r) {
      classes.push_back({d, r, -1});
    }
  }
  return classes;
}

/// Publishes, starts the terminal, and warms the shared cache with one
/// serve of every class (spread over the workload's clients). Views are
/// checked like any other serve, and the SOE buffer peak is taken over
/// them too, so every class counts toward it however short the run.
Result<std::unique_ptr<Deployment>> SetUp(const Inputs& in,
                                          std::vector<uint64_t>* publish_ns,
                                          uint64_t* warm_failures,
                                          uint64_t* peak_buffered_bytes) {
  CSXA_ASSIGN_OR_RETURN(auto dep, Deploy(in, publish_ns));
  const std::vector<Request> classes = Classes(in);
  const Opener open = SessionOpener(in, *dep);
  const Bumper no_bump = [](uint32_t, uint64_t*) { return Status::OK(); };
  std::vector<ServeOutcome> outcomes(classes.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < in.spec->clients; ++c) {
    threads.emplace_back([&]() {
      for (size_t i = next.fetch_add(1); i < classes.size();
           i = next.fetch_add(1)) {
        outcomes[i] = ServeOnce(in, classes[i], open, no_bump, {});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ServeOutcome& o : outcomes) {
    if (!o.completed) ++*warm_failures;
    *peak_buffered_bytes = std::max(*peak_buffered_bytes, o.peak_buffered_bytes);
  }
  return dep;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "" : ", ") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int RunEndToEnd(const Inputs& in, const Args& args) {
  std::vector<uint64_t> setup_ns;
  std::vector<uint64_t> publish_ns;
  uint64_t warm_failures = 0;
  uint64_t warm_peak = 0;
  std::unique_ptr<Deployment> dep;
  // One timed set-up; the previous deployment shuts down outside the timing.
  auto set_up = [&]() {
    dep.reset();
    const uint64_t t0 = NowNs();
    auto d = SetUp(in, &publish_ns, &warm_failures, &warm_peak);
    setup_ns.push_back(NowNs() - t0);
    if (!d.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   d.status().ToString().c_str());
      return false;
    }
    dep = std::move(d.value());
    return true;
  };
  // Update() latency: the in-loop churn where the workload has it,
  // otherwise re-publications no serve overlaps, sampled at both ends of
  // the run: here on a deployment the loop will not use, and after it.
  const bool churn = in.spec->update_every > 0;
  std::vector<uint64_t> update_ns;
  uint64_t update_attempts = 0, update_failures = 0;
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (!set_up()) return 1;
    if (i == 0 && !churn) {
      UpdateRounds(in, *dep, &update_ns, &update_attempts, &update_failures);
    }
  }

  const Opener open = SessionOpener(in, *dep);
  const Bumper bump = [&](uint32_t doc, uint64_t* ns) {
    return BumpVersion(in, *dep, doc, ns, nullptr);
  };
  LoopTally tally = RunLoop(in, args.seconds, kMinServes, open, bump, {});
  tally.peak_buffered_bytes = std::max(tally.peak_buffered_bytes, warm_peak);

  if (!churn) {
    UpdateRounds(in, *dep, &update_ns, &update_attempts, &update_failures);
  }
  tally.update_ns.insert(tally.update_ns.end(), update_ns.begin(),
                         update_ns.end());
  tally.attempted += update_attempts;
  tally.failed += update_failures;
  const uint64_t after_t0 = NowNs();
  for (int i = 0; i < kSetupsAfter || NowNs() - after_t0 < kSetupsAfterNs; ++i) {
    if (!set_up()) return 1;
  }
  dep.reset();

  const double serves_per_s = static_cast<double>(tally.completed) * 1e9 /
                              static_cast<double>(tally.wall_ns);
  std::fprintf(stderr,
               "servebench: %s seed %llu: %llu serves completed in %.3f s "
               "(%llu latency samples, %llu beyond p90), %llu stale "
               "rejections retried, %zu update samples, %zu set-ups\n",
               in.spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(tally.completed),
               static_cast<double>(tally.wall_ns) / 1e9,
               static_cast<unsigned long long>(tally.latency_ns.size()),
               static_cast<unsigned long long>(tally.latency_ns.size() / 10),
               static_cast<unsigned long long>(tally.stale),
               tally.update_ns.size(), setup_ns.size());
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "servebench: first failure: %s\n",
                 tally.first_error.c_str());
  }
  const uint64_t failed = tally.failed + warm_failures;
  const bool correct = failed == 0 && tally.completed >= kMinServes;
  const std::vector<Metric> metrics = {
      {"serves_per_s", serves_per_s, "1/s"},
      {"serve_p50_ms", Ms(Quantile(tally.latency_ns, 0.5)), "ms"},
      {"serve_p90_ms", Ms(Quantile(tally.latency_ns, 0.9)), "ms"},
      {"ttfv_p50_ms", Ms(Quantile(tally.ttfv_ns, 0.5)), "ms"},
      {"soe_peak_buffer_bytes",
       static_cast<double>(tally.peak_buffered_bytes), "bytes"},
      {"update_p50_ms", Ms(Quantile(tally.update_ns, 0.5)), "ms"},
      {"success_ratio",
       tally.attempted == 0
           ? 0.0
           : static_cast<double>(tally.attempted - tally.failed) /
                 static_cast<double>(tally.attempted),
       "ratio"},
      {"setup_s", static_cast<double>(Quantile(setup_ns, 0.5)) / 1e9, "s"},
      {"peak_rss_mb",
       static_cast<double>(csxa::bench::ReadPeakRssKb()) / 1024.0, "MB"},
  };
  PrintResult(correct, tally.attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from the rebuilt chain.

/// Owner-side isolation passes over one document's content 0, plus the
/// geometry of every content's store (what the SOE is told out of band).
struct OwnerSide {
  std::vector<std::vector<Geometry>> geometry;  ///< [doc][content]
  uint64_t parse_ns = 0;
  uint64_t encode_ns = 0;
  uint64_t seal_ns = 0;
  uint64_t navigate_ns = 0;
  uint64_t navigate_items = 0;
  uint64_t evaluate_ns = 0;
  uint64_t evaluate_events = 0;
};

/// Records a SAX event stream so the evaluator can be fed without parsing.
class EventRecorder : public csxa::xml::EventHandler {
 public:
  struct Recorded {
    csxa::xml::EventKind kind;
    std::string text;
    int depth;
  };
  void OnOpen(const std::string& tag, int depth) override {
    events.push_back({csxa::xml::EventKind::kOpen, tag, depth});
  }
  void OnValue(const std::string& value, int depth) override {
    events.push_back({csxa::xml::EventKind::kValue, value, depth});
  }
  void OnClose(const std::string& tag, int depth) override {
    events.push_back({csxa::xml::EventKind::kClose, tag, depth});
  }
  std::vector<Recorded> events;
};

class NullHandler : public csxa::xml::EventHandler {
 public:
  void OnOpen(const std::string&, int) override {}
  void OnValue(const std::string&, int) override {}
  void OnClose(const std::string&, int) override {}
};

Result<OwnerSide> RunOwnerSide(const Inputs& in) {
  OwnerSide owner;
  const WorkloadSpec& spec = *in.spec;
  owner.geometry.resize(in.doc_ids.size());
  for (size_t d = 0; d < in.doc_ids.size(); ++d) {
    for (int c = 0; c < spec.contents; ++c) {
      std::vector<uint64_t> parse, encode, seal;
      const int repeats = c == 0 ? kIsolationRepeats : 1;
      Geometry g;
      for (int rep = 0; rep < repeats; ++rep) {
        uint64_t t0 = NowNs();
        CSXA_ASSIGN_OR_RETURN(auto dom,
                              csxa::xml::SaxParser::ParseToDom(in.xml[d][c]));
        parse.push_back(NowNs() - t0);
        t0 = NowNs();
        CSXA_ASSIGN_OR_RETURN(csxa::index::EncodedDocument encoded,
                              csxa::index::Encode(*dom, csxa::index::Variant::kTcsbr));
        encode.push_back(NowNs() - t0);
        t0 = NowNs();
        CSXA_ASSIGN_OR_RETURN(
            csxa::crypto::SecureDocumentStore store,
            csxa::crypto::SecureDocumentStore::Build(
                encoded.bytes, in.key, in.layout, 0, spec.backend));
        seal.push_back(NowNs() - t0);
        g.layout = in.layout;
        g.plaintext_size = store.plaintext_size();
        g.ciphertext_size = store.ciphertext().size();
        g.chunk_count = store.chunk_count();
        g.key = in.key;
        g.backend = spec.backend;
        if (c != 0 || rep != 0) continue;
        // Navigator alone over the materialized encoding, full stream.
        CSXA_ASSIGN_OR_RETURN(auto nav,
                              csxa::index::DocumentNavigator::Open(&encoded));
        t0 = NowNs();
        while (true) {
          CSXA_ASSIGN_OR_RETURN(auto item, nav->Next());
          ++owner.navigate_items;
          if (item.kind == csxa::index::DocumentNavigator::ItemKind::kEnd) break;
        }
        owner.navigate_ns += NowNs() - t0;
      }
      owner.geometry[d].push_back(g);
      if (c != 0) continue;
      owner.parse_ns += Quantile(parse, 0.5);
      owner.encode_ns += Quantile(encode, 0.5);
      owner.seal_ns += Quantile(seal, 0.5);
    }
    // Evaluator alone, fed the recorded event stream of content 0.
    EventRecorder recorder;
    CSXA_RETURN_NOT_OK(csxa::xml::SaxParser::Parse(in.xml[d][0], &recorder));
    for (size_t r = 0; r < spec.roles.size(); ++r) {
      NullHandler sink;
      csxa::access::RuleEvaluator eval(in.rules[d][r], &sink);
      const uint64_t t0 = NowNs();
      for (const EventRecorder::Recorded& e : recorder.events) {
        switch (e.kind) {
          case csxa::xml::EventKind::kOpen: eval.OnOpen(e.text, e.depth); break;
          case csxa::xml::EventKind::kValue: eval.OnValue(e.text, e.depth); break;
          case csxa::xml::EventKind::kClose: eval.OnClose(e.text, e.depth); break;
        }
      }
      CSXA_RETURN_NOT_OK(eval.Finish());
      owner.evaluate_ns += NowNs() - t0;
      owner.evaluate_events += recorder.events.size();
    }
  }
  return owner;
}

/// Opens rebuilt chains over timed sources, one shared verified-digest
/// cache per document version (what the service keeps per version).
class ChainFactory {
 public:
  ChainFactory(const Inputs& in, const Deployment& dep, const OwnerSide& owner)
      : in_(in), owner_(owner) {
    for (size_t d = 0; d < in.doc_ids.size(); ++d) {
      sources_.push_back(std::make_shared<TimedSource>(dep.links[d]));
      current_.push_back(NewCache(0));
    }
  }

  Result<std::unique_ptr<ServeHandle>> Open(const Request& r) {
    ScopedSpan span("pipeline.open");
    std::shared_ptr<csxa::crypto::VerifiedDigestCache> cache;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cache = current_[r.doc];
    }
    const uint32_t version = cache->version();
    CSXA_ASSIGN_OR_RETURN(
        auto chain,
        Chain::Open(sources_[r.doc].get(),
                    owner_.geometry[r.doc][in_.ContentOf(version)], version,
                    cache, in_.rules[r.doc][r.role],
                    kPendingBufferBudget));
    return std::unique_ptr<ServeHandle>(new ChainHandle(std::move(chain), version));
  }

  /// A version bump: later chains of `doc` start from a cold cache.
  void OnBump(uint32_t doc, uint32_t version) {
    std::lock_guard<std::mutex> lock(mu_);
    current_[doc] = NewCache(version);
  }

  /// Bare-read hits over all verifications since the last ResetHitRate().
  double HitRate() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t hits = 0, misses = 0;
    for (const auto& c : all_) {
      const auto s = c->stats();
      hits += s.bare_hits;
      misses += s.misses;
    }
    hits -= base_hits_;
    misses -= base_misses_;
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  }
  void ResetHitRate() {
    std::lock_guard<std::mutex> lock(mu_);
    base_hits_ = base_misses_ = 0;
    for (const auto& c : all_) {
      base_hits_ += c->stats().bare_hits;
      base_misses_ += c->stats().misses;
    }
  }
  int max_inflight() const {
    int m = 0;
    for (const auto& s : sources_) m = std::max(m, s->max_inflight());
    return m;
  }
  csxa::crypto::BatchSource::TransportStats transport_stats() const {
    csxa::crypto::BatchSource::TransportStats total;
    for (const auto& s : sources_) {
      total.retries += s->transport_stats().retries;
      total.reconnects += s->transport_stats().reconnects;
    }
    return total;
  }

 private:
  std::shared_ptr<csxa::crypto::VerifiedDigestCache> NewCache(uint32_t version) {
    auto cache = std::make_shared<csxa::crypto::VerifiedDigestCache>(
        in_.layout.fragments_per_chunk(), ConfigFor(in_).shared_cache_capacity,
        version);
    all_.push_back(cache);
    return cache;
  }

  const Inputs& in_;
  const OwnerSide& owner_;
  std::vector<std::shared_ptr<TimedSource>> sources_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<csxa::crypto::VerifiedDigestCache>> current_;
  std::vector<std::shared_ptr<csxa::crypto::VerifiedDigestCache>> all_;
  uint64_t base_hits_ = 0;
  uint64_t base_misses_ = 0;
};

/// Per-request record of a traced serve (work summed over its attempts).
struct TracedServe {
  uint64_t index = 0;
  uint32_t stale = 0;
  ChainCounts work;  ///< Sums; eval.peak_buffered_bytes is a max.
  uint64_t next_ns = 0;
  /// Terminal round trips, every one timed; and the same inside Next().
  uint64_t fetch_ns = 0;
  uint64_t fetch_in_next_ns = 0;
  /// Sampled Ensure calls minus the round trips inside them (the planner,
  /// verification and decryption part), in all and inside Next().
  uint64_t ensure_local_sampled_ns = 0;
  uint64_t ensure_local_in_next_sampled_ns = 0;
  uint64_t serialize_ns = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  std::vector<uint64_t> read_batch_ns;
};

void AddWork(const ChainCounts& c, ChainCounts* sum) {
  sum->ensure_calls += c.ensure_calls;
  sum->planner_calls += c.planner_calls;
  sum->bits_decoded += c.bits_decoded;
  sum->bytes_consumed += c.bytes_consumed;
  sum->requests += c.requests;
  sum->wire_bytes += c.wire_bytes;
  sum->bytes_fetched += c.bytes_fetched;
  sum->gap_fragments_bridged += c.gap_fragments_bridged;
  sum->bare_chunk_reads += c.bare_chunk_reads;
  sum->proof_hashes_shipped += c.proof_hashes_shipped;
  sum->digest_bytes_shipped += c.digest_bytes_shipped;
  sum->drive.skips += c.drive.skips;
  sum->drive.deferrals += c.drive.deferrals;
  sum->drive.rereads += c.drive.rereads;
  sum->drive.reread_fetched_bytes += c.drive.reread_fetched_bytes;
  sum->eval.events_in += c.eval.events_in;
  sum->eval.predicates_spawned += c.eval.predicates_spawned;
  sum->eval.watcher_subscriptions += c.eval.watcher_subscriptions;
  sum->eval.peak_buffered_bytes =
      std::max(sum->eval.peak_buffered_bytes, c.eval.peak_buffered_bytes);
  sum->soe.bytes_decrypted += c.soe.bytes_decrypted + c.soe.digest_bytes_decrypted;
  sum->soe.bytes_hashed += c.soe.bytes_hashed;
  sum->soe.hash_combines += c.soe.hash_combines;
  sum->soe.decrypt_ns += c.soe.decrypt_ns;
  sum->soe.hash_ns += c.soe.hash_ns;
}

/// Folds one serve's spans into its record. Every terminal round trip
/// happens inside an Ensure call, and all of them are timed, so Ensure
/// time is estimated as the round trips plus the sampled remainder scaled
/// up; the remainder alone is what the 1-in-N sample has to carry.
void FoldSpans(const SpanLog& log, TracedServe* rec) {
  const std::vector<Span>& spans = log.spans();
  const uint64_t overhead = SpanOverheadNs();
  auto ns = [overhead](const Span& s) {
    return s.duration_ns() > overhead ? s.duration_ns() - overhead : 0;
  };
  auto in_next = [&spans](const Span& s) {
    for (int32_t p = s.parent; p >= 0; p = spans[static_cast<size_t>(p)].parent) {
      if (std::string_view(spans[static_cast<size_t>(p)].name) == "pipeline.next") {
        return true;
      }
    }
    return false;
  };
  std::vector<uint64_t> child_fetch_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "net.read_batch") continue;
    rec->read_batch_ns.push_back(ns(s));
    rec->fetch_ns += ns(s);
    if (in_next(s)) rec->fetch_in_next_ns += ns(s);
    if (s.parent >= 0) child_fetch_ns[static_cast<size_t>(s.parent)] += ns(s);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name = s.name;
    if (name == "pipeline.next") {
      rec->next_ns += ns(s);
    } else if (name == "xml.serialize") {
      rec->serialize_ns += ns(s);
    } else if (name == "index.ensure") {
      const uint64_t local = ns(s) > child_fetch_ns[i] ? ns(s) - child_fetch_ns[i] : 0;
      rec->ensure_local_sampled_ns += local;
      if (in_next(s)) rec->ensure_local_in_next_sampled_ns += local;
    }
  }
  rec->request_bytes = log.request_bytes;
  rec->response_bytes = log.response_bytes;
}

/// Completed-serve latency sums of one (document, role) class, split by
/// whether the serve was traced.
struct ClassLatency {
  uint64_t traced_ns = 0;
  uint64_t traced = 0;
  uint64_t untraced_ns = 0;
  uint64_t untraced = 0;
};

/// What each client thread keeps of its serves.
struct ThreadTrace {
  ThreadTrace(uint32_t thread, size_t classes)
      : log(thread), latency(classes) {}
  SpanLog log;
  std::vector<TracedServe> serves;  ///< Traced serves only.
  TracedServe current;
  bool tracing = false;             ///< Whether the current serve is traced.
  std::vector<ClassLatency> latency;  ///< [doc * roles + role]
  std::vector<Span> coarse;   ///< Serve-level spans of every serve.
  std::vector<Span> slowest;  ///< Every span of this thread's slowest serve.
  uint64_t slowest_ns = 0;
};

/// Whether the traced run traces request `index`: every request of the
/// counted prefix, then a pseudo-random half of the rest, so traced and
/// untraced serves interleave through the run and share its host drift.
bool TracedRequest(uint64_t index, uint64_t count_prefix) {
  if (index < count_prefix) return true;
  uint64_t z = index * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & 1) != 0;
}

/// Tracing cost as untraced over traced serves per second. In a closed
/// loop that is the traced over the untraced mean latency; each class's
/// means are weighted by its serves, so the two halves need not draw the
/// same mix.
double TraceOverhead(const std::vector<std::unique_ptr<ThreadTrace>>& traces) {
  std::vector<ClassLatency> sum(traces.front()->latency.size());
  for (const auto& t : traces) {
    for (size_t c = 0; c < sum.size(); ++c) {
      sum[c].traced_ns += t->latency[c].traced_ns;
      sum[c].traced += t->latency[c].traced;
      sum[c].untraced_ns += t->latency[c].untraced_ns;
      sum[c].untraced += t->latency[c].untraced;
    }
  }
  double traced = 0, untraced = 0;
  for (const ClassLatency& c : sum) {
    if (c.traced == 0 || c.untraced == 0) continue;
    const double n = static_cast<double>(c.traced + c.untraced);
    traced += n * static_cast<double>(c.traced_ns) / static_cast<double>(c.traced);
    untraced +=
        n * static_cast<double>(c.untraced_ns) / static_cast<double>(c.untraced);
  }
  return untraced == 0 ? 0.0 : traced / untraced;
}

bool Coarse(const char* name) {
  const std::string_view n = name;
  return n == "serve" || n == "pipeline.open" || n == "server.update";
}

int RunTraced(const Inputs& in, const Args& args) {
  const WorkloadSpec& spec = *in.spec;
  std::vector<Span> main_spans;  // Owner/server calls made outside a serve.
  auto record = [&main_spans](const char* name, uint64_t start, uint64_t end) {
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    main_spans.push_back(s);
  };
  const uint64_t origin = NowNs();

  auto owner_result = RunOwnerSide(in);
  if (!owner_result.ok()) {
    std::fprintf(stderr, "servebench: owner-side pass failed: %s\n",
                 owner_result.status().ToString().c_str());
    return 1;
  }
  const OwnerSide& owner = owner_result.value();

  std::vector<uint64_t> publish_ns;
  auto dep_result = Deploy(in, &publish_ns);
  if (!dep_result.ok()) {
    std::fprintf(stderr, "servebench: deploy failed: %s\n",
                 dep_result.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Deployment> dep = std::move(dep_result.value());
  auto factory = std::make_unique<ChainFactory>(in, *dep, owner);

  // Equivalence passes (these also warm both caches identically): every
  // class through SecureSession, then through the rebuilt chain; views,
  // requests and wire bytes must agree exactly. Two passes, so the caches
  // reach the state the measured serves find them in.
  const Opener chain_open = [&](const Request& r) { return factory->Open(r); };
  const Bumper no_bump = [](uint32_t, uint64_t*) { return Status::OK(); };
  uint64_t equivalence_failures = 0;
  std::vector<uint64_t> open_session_ns;
  csxa::pipeline::ServeOptions opts;
  opts.pending_buffer_budget = kPendingBufferBudget;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Request& r : Classes(in)) {
      const uint64_t t0 = NowNs();
      auto session = dep->service->OpenSession(
          in.doc_ids[r.doc], in.rules[r.doc][r.role], opts);
      const uint64_t t1 = NowNs();
      open_session_ns.push_back(t1 - t0);
      record("server.open_session", t0, t1);
      if (!session.ok()) {
        ++equivalence_failures;
        continue;
      }
      auto report = session.value()->Drain();
      ChainCounts c;
      const ServeOutcome chain = ServeOnce(
          in, r, chain_open, no_bump, [&c](const ServeHandle& h) {
            c = static_cast<const ChainHandle&>(h).chain().Counts();
          });
      // The chain's view was checked against the reference inside
      // ServeOnce; the session's is checked here.
      if (!report.ok() || !chain.completed ||
          report.value().view != in.views[r.doc][0][r.role] ||
          c.requests != report.value().requests ||
          c.wire_bytes != report.value().wire_bytes) {
        ++equivalence_failures;
        std::fprintf(stderr,
                     "servebench: chain differs from SecureSession on %s/%s: "
                     "requests %llu vs %llu, wire %llu vs %llu, %s\n",
                     in.doc_ids[r.doc].c_str(),
                     csxa::bench::RuleFamilyName(spec.roles[r.role]),
                     static_cast<unsigned long long>(c.requests),
                     static_cast<unsigned long long>(
                         report.ok() ? report.value().requests : 0),
                     static_cast<unsigned long long>(c.wire_bytes),
                     static_cast<unsigned long long>(
                         report.ok() ? report.value().wire_bytes : 0),
                     report.ok() ? chain.error.c_str()
                                 : report.status().ToString().c_str());
      }
    }
  }

  // Measured loop: the chain serves the sequence from its start, tracing
  // the counted prefix and then a pseudo-random half of the requests.
  const size_t roles = spec.roles.size();
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  for (int c = 0; c < spec.clients; ++c) {
    traces.push_back(std::make_unique<ThreadTrace>(
        static_cast<uint32_t>(c + 1), in.doc_ids.size() * roles));
  }
  const Bumper chain_bump = [&](uint32_t doc, uint64_t* ns) {
    uint32_t version = 0;
    ScopedSpan span("server.update");
    CSXA_RETURN_NOT_OK(BumpVersion(in, *dep, doc, ns, &version));
    factory->OnBump(doc, version);
    return Status::OK();
  };
  ClientHooks hooks;
  hooks.before = [&](uint32_t thread, uint64_t index) {
    ThreadTrace& t = *traces[thread - 1];
    t.tracing = TracedRequest(index, spec.count_prefix);
    t.current = TracedServe();
    t.current.index = index;
    if (!t.tracing) return;
    SetActiveLog(&t.log);
    t.log.spans().clear();
    t.log.request_bytes = t.log.response_bytes = 0;
    t.log.set_serve(static_cast<uint32_t>(index));
  };
  hooks.after = [&](uint32_t thread, uint64_t index, const ServeOutcome& o) {
    ThreadTrace& t = *traces[thread - 1];
    if (o.completed) {
      const Request& r = in.At(index);
      ClassLatency& c = t.latency[r.doc * roles + r.role];
      (t.tracing ? c.traced_ns : c.untraced_ns) += o.latency_ns;
      ++(t.tracing ? c.traced : c.untraced);
    }
    if (!t.tracing) return;
    SetActiveLog(nullptr);
    t.current.stale = o.stale;
    FoldSpans(t.log, &t.current);
    t.serves.push_back(std::move(t.current));
    const uint64_t serve_ns =
        t.log.spans().empty() ? 0 : t.log.spans()[0].duration_ns();
    for (const Span& s : t.log.spans()) {
      if (Coarse(s.name)) {
        Span copy = s;
        copy.parent = -1;
        t.coarse.push_back(copy);
      }
    }
    if (serve_ns > t.slowest_ns) {
      t.slowest_ns = serve_ns;
      t.slowest = t.log.spans();
    }
  };
  hooks.attempt = [&](uint32_t thread, const ServeHandle& h) {
    AddWork(static_cast<const ChainHandle&>(h).chain().Counts(),
            &traces[thread - 1]->current.work);
  };

  factory->ResetHitRate();
  const auto transport_before = factory->transport_stats();
  LoopTally loop = RunLoop(in, args.seconds, spec.count_prefix, chain_open,
                           chain_bump, hooks);
  const auto transport_after = factory->transport_stats();
  const double hit_rate = factory->HitRate();

  std::vector<uint64_t> update_ns = loop.update_ns;
  if (spec.update_every == 0) {
    UpdateRounds(in, *dep, &update_ns, &loop.attempted, &loop.failed);
  }
  const int max_inflight = factory->max_inflight();
  factory.reset();
  dep.reset();

  // ---- Fold the traced serves into per-layer metrics ---------------------
  ChainCounts prefix;
  uint64_t prefix_serves = 0, prefix_stale = 0, prefix_request_bytes = 0,
           prefix_response_bytes = 0;
  uint64_t all_serves = 0, next_ns = 0, fetch_ns = 0, fetch_in_next_ns = 0,
           ensure_local_ns = 0, ensure_local_in_next_ns = 0,
           serialize_ns = 0, decrypt_ns = 0, hash_ns = 0;
  std::vector<uint64_t> read_batch_ns;
  for (const auto& t : traces) {
    for (const TracedServe& s : t->serves) {
      ++all_serves;
      next_ns += s.next_ns;
      fetch_ns += s.fetch_ns;
      fetch_in_next_ns += s.fetch_in_next_ns;
      ensure_local_ns += s.ensure_local_sampled_ns;
      ensure_local_in_next_ns += s.ensure_local_in_next_sampled_ns;
      serialize_ns += s.serialize_ns;
      decrypt_ns += s.work.soe.decrypt_ns;
      hash_ns += s.work.soe.hash_ns;
      read_batch_ns.insert(read_batch_ns.end(), s.read_batch_ns.begin(),
                           s.read_batch_ns.end());
      if (s.index >= spec.count_prefix) continue;
      ++prefix_serves;
      prefix_stale += s.stale;
      prefix_request_bytes += s.request_bytes;
      prefix_response_bytes += s.response_bytes;
      AddWork(s.work, &prefix);
    }
  }
  const double n = static_cast<double>(std::max<uint64_t>(1, prefix_serves));
  const double all = static_cast<double>(std::max<uint64_t>(1, all_serves));
  const double sample = static_cast<double>(CountingFetcher::kSampleEvery);
  auto per = [n](uint64_t v) { return static_cast<double>(v) / n; };

  const std::vector<Metric> metrics = {
      {"index.ensure_calls", per(prefix.ensure_calls), "count"},
      {"index.ensure_calls_per_mb",
       prefix.bytes_fetched == 0
           ? 0.0
           : static_cast<double>(prefix.ensure_calls) * 1048576.0 /
                 static_cast<double>(prefix.bytes_fetched),
       "count"},
      {"index.planner_calls", per(prefix.planner_calls), "count"},
      {"index.bits_decoded", per(prefix.bits_decoded), "count"},
      {"index.ensure_ms", (Ms(fetch_ns) + Ms(ensure_local_ns) * sample) / all,
       "ms"},
      {"index.navigate_ns_per_item",
       static_cast<double>(owner.navigate_ns) /
           static_cast<double>(std::max<uint64_t>(1, owner.navigate_items)),
       "ns"},
      {"index.requests_per_serve", per(prefix.requests), "count"},
      {"index.bytes_fetched", per(prefix.bytes_fetched), "bytes"},
      {"index.useful_fetch_ratio",
       prefix.bytes_fetched == 0
           ? 0.0
           : static_cast<double>(prefix.bytes_consumed) /
                 static_cast<double>(prefix.bytes_fetched),
       "ratio"},
      {"index.gap_fragments_bridged", per(prefix.gap_fragments_bridged), "count"},
      {"access.evaluate_ns_per_event",
       static_cast<double>(owner.evaluate_ns) /
           static_cast<double>(std::max<uint64_t>(1, owner.evaluate_events)),
       "ns"},
      {"access.events_in", per(prefix.eval.events_in), "count"},
      {"access.predicates_spawned", per(prefix.eval.predicates_spawned), "count"},
      {"access.watcher_subscriptions", per(prefix.eval.watcher_subscriptions),
       "count"},
      {"access.peak_buffered_bytes",
       static_cast<double>(prefix.eval.peak_buffered_bytes), "bytes"},
      {"pipeline.next_ms", Ms(next_ns) / all, "ms"},
      {"pipeline.nav_eval_self_ms",
       (Ms(next_ns) - Ms(fetch_in_next_ns) -
        Ms(ensure_local_in_next_ns) * sample) / all,
       "ms"},
      {"pipeline.skips", per(prefix.drive.skips), "count"},
      {"pipeline.deferrals", per(prefix.drive.deferrals), "count"},
      {"pipeline.rereads", per(prefix.drive.rereads), "count"},
      {"pipeline.reread_fetched_bytes", per(prefix.drive.reread_fetched_bytes),
       "bytes"},
      {"crypto.decrypt_ms", Ms(decrypt_ns) / all, "ms"},
      {"crypto.bytes_decrypted", per(prefix.soe.bytes_decrypted), "bytes"},
      {"crypto.hash_ms", Ms(hash_ns) / all, "ms"},
      {"crypto.bytes_hashed", per(prefix.soe.bytes_hashed), "bytes"},
      {"crypto.hash_combines", per(prefix.soe.hash_combines), "count"},
      {"crypto.proof_hashes_shipped", per(prefix.proof_hashes_shipped), "count"},
      {"crypto.digest_bytes_shipped", per(prefix.digest_bytes_shipped), "bytes"},
      {"crypto.bare_chunk_reads", per(prefix.bare_chunk_reads), "count"},
      {"crypto.seal_ms", Ms(owner.seal_ns), "ms"},
      {"server.publish_ms", Ms(Quantile(publish_ns, 0.5)), "ms"},
      {"server.update_ms", Ms(Quantile(update_ns, 0.5)), "ms"},
      {"server.open_session_ms", Ms(Quantile(open_session_ns, 0.5)), "ms"},
      {"server.stale_rejections", static_cast<double>(prefix_stale), "count"},
      {"server.digest_cache_hit_rate", hit_rate, "ratio"},
      {"net.read_batch_ms", Ms(Quantile(read_batch_ns, 0.5)), "ms"},
      {"net.wire_bytes_per_serve", per(prefix_response_bytes), "bytes"},
      {"net.request_bytes", per(prefix_request_bytes), "bytes"},
      {"net.retries",
       static_cast<double>(transport_after.retries - transport_before.retries),
       "count"},
      {"net.reconnects",
       static_cast<double>(transport_after.reconnects -
                           transport_before.reconnects),
       "count"},
      {"net.max_inflight", static_cast<double>(max_inflight), "count"},
      {"xml.parse_ms", Ms(owner.parse_ns), "ms"},
      {"index.encode_ms", Ms(owner.encode_ns), "ms"},
      {"xml.serialize_ms", Ms(serialize_ns) / all, "ms"},
      {"trace_overhead", TraceOverhead(traces), "ratio"},
  };

  // ---- Chrome trace: serve-level spans of every serve, all spans of the
  // slowest one, and the owner/server calls made outside serves. ---------
  if (!args.trace_dir.empty()) {
    std::vector<Span> out = main_spans;
    const ThreadTrace* slowest = nullptr;
    for (const auto& t : traces) {
      out.insert(out.end(), t->coarse.begin(), t->coarse.end());
      if (slowest == nullptr || t->slowest_ns > slowest->slowest_ns) {
        slowest = t.get();
      }
    }
    if (slowest != nullptr) {
      // Its serve-level spans are already in; of the rest, the calls that
      // took long enough to matter (the per-event Next/serialize calls that
      // fetched nothing would make the file tens of MB). Parents are
      // re-indexed into `out`, or -1 when the parent is not kept there.
      std::vector<int32_t> index(slowest->slowest.size(), -1);
      for (size_t i = 0; i < slowest->slowest.size(); ++i) {
        Span s = slowest->slowest[i];
        if (Coarse(s.name) || s.duration_ns() < kMinDetailSpanNs) continue;
        s.parent = s.parent >= 0 ? index[static_cast<size_t>(s.parent)] : -1;
        index[i] = static_cast<int32_t>(out.size());
        out.push_back(s);
      }
    }
    const std::string path = args.trace_dir + "/" + spec.name + "_seed" +
                             std::to_string(args.seed) + ".json";
    if (!WriteChromeTrace(path, out, origin)) {
      std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "servebench: trace written to %s\n", path.c_str());
    }
  }

  const uint64_t failed = loop.failed + equivalence_failures;
  if (!loop.first_error.empty()) {
    std::fprintf(stderr, "servebench: first failure: %s\n",
                 loop.first_error.c_str());
  }
  std::fprintf(stderr,
               "servebench: %llu serves completed, %llu traced (%llu counted)\n",
               static_cast<unsigned long long>(loop.completed),
               static_cast<unsigned long long>(all_serves),
               static_cast<unsigned long long>(prefix_serves));
  const bool correct = failed == 0 && prefix_serves == spec.count_prefix;
  PrintResult(correct, loop.attempted, failed, metrics);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The pacing proxy emulates its RTT with sleeps; the default 50 us timer
  // slack, inherited by every thread started from here, would stretch each
  // 250 us half-trip by a host-dependent amount.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  auto inputs = perfbench::MakeInputs(*spec, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "servebench: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  return args.trace ? perfbench::RunTraced(inputs.value(), args)
                    : perfbench::RunEndToEnd(inputs.value(), args);
}
