// csxa_load — service-level load driver for the secure-serve stack.
//
// Publishes one generated corpus per requested family into a
// DocumentService, then races a thread pool of mixed-role sessions
// against concurrent Update() version bumps, byte-checking every
// completed view against a single-session reference. See
// src/bench/load_harness.h for the measurement contract.
//
//   csxa_load                         # paper families, 1 MB, 8 threads
//   csxa_load --families all --bytes 16777216 --threads 16 --serves 8
//   csxa_load --smoke                 # CI preset: small and quick
//   csxa_load --soak                  # manual gigabyte-scale preset (AES)
//   csxa_load --remote --rtt 1 --faults 12 --smoke   # TCP + seeded faults
//
// Exit status is nonzero when any completed view mismatched, any failure
// was outside the contract (clean IntegrityError always; plus the typed
// retryable transport classes when --faults programs weather), or no
// serve completed at all.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>

#include "bench/load_harness.h"

namespace {

using csxa::Result;
using csxa::bench::CorpusFamily;
using csxa::bench::LoadConfig;
using csxa::bench::LoadReport;

void Usage() {
  std::fprintf(stderr,
               "usage: csxa_load [options]\n"
               "  --families LIST  comma list of families, or 'paper' (default)"
               " or 'all'\n"
               "  --bytes N        per-document corpus size (default 1048576)\n"
               "  --threads N      worker threads (default 8)\n"
               "  --serves N       serves per thread (default 3)\n"
               "  --versions N     concurrent version bumps (default 2)\n"
               "  --seed N         content seed (default 1)\n"
               "  --zipf S         role-popularity exponent (default 1.1)\n"
               "  --variant V      nc|tc|tcs|tcsb|tcsbr (default tcsbr)\n"
               "  --chunk N        chunk size in bytes (default 1024)\n"
               "  --fragment N     fragment size in bytes (default 64)\n"
               "  --cache N        shared digest-cache capacity (default 4096;"
               " 0 = no shared cache,\n"
               "                   every serve starts cold with a private"
               " cache)\n"
               "  --backend B      cipher backend: 3des (default), aes,"
               " aes-portable\n"
               "  --out FILE       also write the report JSON to FILE\n"
               "  --remote         serve over TCP: in-process terminal server"
               " + RemoteBatchSource\n"
               "  --rtt MS         injected round-trip time in ms (implies a"
               " pacing proxy)\n"
               "  --faults N       program N seeded fault events into the"
               " proxy (implies --remote)\n"
               "  --fault-seed N   fault program seed (default 42)\n"
               "  --smoke          CI preset: paper families, 1 MB, 8 threads,"
               " 2 serves/thread, 2 bumps\n"
               "  --soak           manual gigabyte-scale preset: all families,"
               " 64 MB/doc, 16 threads,\n"
               "                   8 serves/thread, 6 bumps, aes backend"
               " (~1.5 GB of plaintext served;\n"
               "                   later flags override, e.g. --soak --bytes"
               " 134217728)\n");
}

bool ParseFamilies(const std::string& arg, std::vector<CorpusFamily>* out) {
  if (arg == "paper") {
    *out = csxa::bench::PaperFamilies();
    return true;
  }
  if (arg == "all") {
    *out = csxa::bench::AllFamilies();
    return true;
  }
  out->clear();
  size_t pos = 0;
  while (pos <= arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    Result<CorpusFamily> family =
        csxa::bench::ParseFamily(arg.substr(pos, comma - pos));
    if (!family.ok()) {
      std::fprintf(stderr, "csxa_load: %s\n",
                   family.status().message().c_str());
      return false;
    }
    out->push_back(family.value());
    pos = comma + 1;
  }
  return !out->empty();
}

/// Parses all of `text` as a number of type T (base 10 for integers);
/// false on an empty string, trailing characters or a value out of range.
template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseVariant(const std::string& arg, csxa::index::Variant* out) {
  using csxa::index::Variant;
  if (arg == "nc") *out = Variant::kNc;
  else if (arg == "tc") *out = Variant::kTc;
  else if (arg == "tcs") *out = Variant::kTcs;
  else if (arg == "tcsb") *out = Variant::kTcsb;
  else if (arg == "tcsbr") *out = Variant::kTcsbr;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  LoadConfig config;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool parsed = true;
    if (arg == "--smoke") {
      config.families = csxa::bench::PaperFamilies();
      config.target_bytes = 1 << 20;
      config.threads = 8;
      config.serves_per_thread = 2;
      config.version_bumps = 2;
    } else if (arg == "--soak") {
      // Gigabyte-scale manual preset (not run in CI): every family at
      // 64 MB/document under the AES backend, long enough churn that the
      // shared cache sees real turnover. Later flags override.
      config.families = csxa::bench::AllFamilies();
      config.target_bytes = 64ull << 20;
      config.threads = 16;
      config.serves_per_thread = 8;
      config.version_bumps = 6;
      config.backend = csxa::crypto::CipherBackendKind::kAes;
    } else if (arg == "--backend" && (v = next())) {
      Result<csxa::crypto::CipherBackendKind> kind =
          csxa::crypto::ParseCipherBackendName(v);
      if (!kind.ok()) {
        std::fprintf(stderr, "csxa_load: %s\n",
                     kind.status().message().c_str());
        return 2;
      }
      config.backend = kind.value();
    } else if (arg == "--families" && (v = next())) {
      if (!ParseFamilies(v, &config.families)) return 2;
    } else if (arg == "--bytes" && (v = next())) {
      parsed = ParseNumber(v, &config.target_bytes);
    } else if (arg == "--threads" && (v = next())) {
      parsed = ParseNumber(v, &config.threads);
    } else if (arg == "--serves" && (v = next())) {
      parsed = ParseNumber(v, &config.serves_per_thread);
    } else if (arg == "--versions" && (v = next())) {
      parsed = ParseNumber(v, &config.version_bumps);
    } else if (arg == "--seed" && (v = next())) {
      parsed = ParseNumber(v, &config.seed);
    } else if (arg == "--zipf" && (v = next())) {
      parsed = ParseNumber(v, &config.zipf_s);
    } else if (arg == "--variant" && (v = next())) {
      parsed = ParseVariant(v, &config.variant);
    } else if (arg == "--chunk" && (v = next())) {
      parsed = ParseNumber(v, &config.layout.chunk_size);
    } else if (arg == "--fragment" && (v = next())) {
      parsed = ParseNumber(v, &config.layout.fragment_size);
    } else if (arg == "--cache" && (v = next())) {
      parsed = ParseNumber(v, &config.shared_cache_capacity);
    } else if (arg == "--out" && (v = next())) {
      out_path = v;
    } else if (arg == "--remote") {
      config.remote = true;
    } else if (arg == "--rtt" && (v = next())) {
      config.remote = true;
      uint64_t rtt_ms = 0;
      parsed = ParseNumber(v, &rtt_ms) && rtt_ms <= UINT64_MAX / 1'000'000;
      config.rtt_ns = rtt_ms * 1'000'000ULL;
    } else if (arg == "--faults" && (v = next())) {
      config.remote = true;
      parsed = ParseNumber(v, &config.fault_count);
    } else if (arg == "--fault-seed" && (v = next())) {
      parsed = ParseNumber(v, &config.fault_seed);
    } else {
      Usage();
      return 2;
    }
    if (!parsed) {
      std::fprintf(stderr, "csxa_load: bad value '%s' for %s\n", v,
                   arg.c_str());
      Usage();
      return 2;
    }
  }

  Result<LoadReport> result = csxa::bench::RunLoad(config);
  if (!result.ok()) {
    std::fprintf(stderr, "csxa_load: %s\n",
                 result.status().message().c_str());
    return 1;
  }
  const LoadReport& report = result.value();

  std::string json;
  report.AppendJson(&json, "");
  json += "\n";
  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "csxa_load: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  if (report.serves_completed == 0) {
    std::fprintf(stderr, "csxa_load: FAIL no serve completed\n");
    return 1;
  }
  if (report.view_mismatches != 0 || report.wrong_errors != 0) {
    std::fprintf(stderr,
                 "csxa_load: FAIL view_mismatches=%llu wrong_errors=%llu\n",
                 static_cast<unsigned long long>(report.view_mismatches),
                 static_cast<unsigned long long>(report.wrong_errors));
    return 1;
  }
  std::fprintf(stderr,
               "csxa_load: OK %llu/%llu serves (%llu stale rejections), "
               "%.1f serves/s, p99 %.1f ms, cache hit %.2f, %s%s %.1f MB/s\n",
               static_cast<unsigned long long>(report.serves_completed),
               static_cast<unsigned long long>(report.serves_attempted),
               static_cast<unsigned long long>(report.integrity_rejections),
               report.serves_per_sec, report.p99_ns / 1e6,
               report.cache_hit_rate, report.backend.c_str(),
               report.backend_hardware ? "+hw" : "", report.serve_mb_s);
  if (report.remote) {
    std::fprintf(
        stderr,
        "csxa_load: remote: %llu retries, %llu reconnects, %llu transport"
        " rejections, %llu/%llu faults fired\n",
        static_cast<unsigned long long>(report.transport_retries),
        static_cast<unsigned long long>(report.transport_reconnects),
        static_cast<unsigned long long>(report.transport_rejections),
        static_cast<unsigned long long>(report.faults_fired),
        static_cast<unsigned long long>(report.faults_programmed));
  }
  return 0;
}
