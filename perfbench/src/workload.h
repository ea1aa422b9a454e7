#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "bench/corpus.h"
#include "common/status.h"
#include "crypto/cipher_backend.h"
#include "crypto/secure_store.h"
#include "net/fault_proxy.h"
#include "net/remote_source.h"
#include "net/terminal_server.h"
#include "server/document_service.h"

namespace perfbench {

struct DocSpec {
  csxa::bench::CorpusFamily family;
  uint64_t target_bytes;
};

/// SOE pending-buffer budget (bytes) of every serve: finite, so deferral
/// can fire.
constexpr uint64_t kPendingBufferBudget = 1024;

/// One traffic mix. Every workload is closed loop: each client waits for
/// its view before taking the next request of the seeded sequence.
struct WorkloadSpec {
  std::string name;
  std::vector<DocSpec> docs;
  /// Share of the requests per document (empty = equal shares).
  std::vector<double> doc_weights;
  /// Roles in popularity order and their share of each document's
  /// requests.
  std::vector<csxa::bench::RuleFamily> roles;
  std::vector<double> role_weights;
  csxa::crypto::CipherBackendKind backend;
  int clients = 1;
  /// Remote terminal: TerminalServer behind a pacing FaultProxy.
  bool remote = false;
  uint64_t rtt_ns = 0;
  uint64_t bandwidth_bytes_per_s = 0;
  /// Churn: every `update_every`-th serve carries an Update() that lands
  /// between two Next() pulls of its open session (0 = no in-loop churn).
  int update_every = 0;
  /// Distinct document contents; version v of a document holds content
  /// v % contents.
  int contents = 1;
  /// Serves (from the start of the sequence) over which the traced run
  /// takes its exact work counts; every traced run completes them.
  uint32_t count_prefix = 24;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct Request {
  uint32_t doc = 0;
  uint32_t role = 0;
  /// Pull count after which this serve's client publishes an Update of
  /// the document (-1 = none).
  int32_t update_at_pull = -1;
};

/// Everything a run derives from its seed, made before set-up is timed.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  csxa::crypto::TripleDes::Key key{};
  csxa::crypto::ChunkLayout layout;
  std::vector<std::string> doc_ids;                    ///< [doc]
  std::vector<std::vector<std::string>> xml;           ///< [doc][content]
  std::vector<std::vector<std::vector<csxa::access::AccessRule>>>
      rules;                                           ///< [doc][role]
  /// Reference views by a direct SaxParser → RuleEvaluator →
  /// SerializingHandler pass: [doc][content][role].
  std::vector<std::vector<std::vector<std::string>>> views;
  std::vector<Request> sequence;

  const Request& At(uint64_t i) const { return sequence[i % sequence.size()]; }
  uint32_t ContentOf(uint32_t version) const {
    return version % static_cast<uint32_t>(spec->contents);
  }
};

csxa::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// The reference view of `xml` for `rules` (no store, no crypto).
csxa::Result<std::string> DirectView(
    const std::string& xml, const std::vector<csxa::access::AccessRule>& rules);

/// A running service: the published documents plus, for remote workloads,
/// the terminal server, the pacing proxy and one shared RemoteBatchSource
/// per document attached as its transport. Members are declared so the
/// SOE-side sources die before the proxy and the terminal they dial.
struct Deployment {
  std::unique_ptr<csxa::net::TerminalServer> terminal;
  std::unique_ptr<csxa::net::FaultProxy> proxy;
  std::unique_ptr<csxa::server::DocumentService> service;
  /// Per document, the source an SOE reads through: the shared remote
  /// source, or the in-process terminal link.
  std::vector<std::shared_ptr<const csxa::crypto::BatchSource>> links;
};

/// Publishes every document (content 0) and, for remote workloads, starts
/// the terminal server and proxy. `publish_ns` receives each Publish().
csxa::Result<std::unique_ptr<Deployment>> Deploy(
    const Inputs& inputs, std::vector<uint64_t>* publish_ns);

csxa::server::DocumentConfig ConfigFor(const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
