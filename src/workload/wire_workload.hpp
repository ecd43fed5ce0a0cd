// The wire-mode Cbench workload, shared by every consumer.
//
// One config describes the whole experiment: the server process
// (softcell-serverd), the external load generator (run_wire_load, driven
// by the `net` tests), and the in-process reference run all derive their
// topology, policy, subscriber base and request streams from the same
// WireWorkloadConfig with the same seed.  That determinism is what makes
// the acceptance check meaningful: the wire run and the in-process run
// install the same (bs, clause) key set, so their canonical controller
// fingerprints must match even though TCP delivers the wire requests in a
// nondeterministic interleaving (canonical_fingerprint is
// interleaving-independent; runtime/control_brain.hpp).
//
// The request generator is sequential per connection: connection c's i-th
// request depends only on (seed, c, i), never on timing or on other
// connections.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/dispatch.hpp"
#include "ofp/codec.hpp"
#include "runtime/shard_brain.hpp"
#include "topo/cellular.hpp"
#include "util/rng.hpp"

namespace softcell {

struct WireWorkloadConfig {
  std::uint32_t k = 4;              // topology size (must match server side)
  std::uint64_t topo_seed = 1;
  std::size_t shards = 8;
  unsigned workers = 2;
  std::uint32_t connections = 4;    // N emulated switch agents
  std::uint32_t max_outstanding = 16;  // M pipelined requests per connection
  std::uint32_t ues_per_conn = 64;
  std::uint32_t num_clauses = 16;
  std::uint64_t requests_per_conn = 1000;
  double path_request_ratio = 0.05;  // fraction of flow-miss (path) requests
  std::uint64_t seed = 1;

  [[nodiscard]] std::uint64_t total_ues() const {
    return static_cast<std::uint64_t>(connections) * ues_per_conn;
  }
  [[nodiscard]] CellularTopology make_topology() const {
    return CellularTopology({.k = k, .seed = topo_seed});
  }
};

// The provider-based policy scheme every cbench harness uses (one clause
// per provider); clause ids are appended to *ids in clause order.
[[nodiscard]] ServicePolicy make_wire_policy(const CellularTopology& topo,
                                             std::uint32_t num_clauses,
                                             std::vector<ClauseId>* ids);

// Provisions + attaches the deterministic subscriber base the request
// streams reference (outside any timed region).
void provision_wire_ues(ControlBrain& brain, const WireWorkloadConfig& config,
                        std::uint32_t num_bs);

// Connection c's deterministic request stream; next() yields the i-th
// request with xid = i.
class WireRequestGen {
 public:
  WireRequestGen(const WireWorkloadConfig& config, std::uint32_t num_bs,
                 std::span<const ClauseId> clauses, std::uint32_t conn);

  [[nodiscard]] ofp::PacketInMsg next();

 private:
  Rng rng_;
  std::uint64_t total_ues_;
  std::uint32_t ues_per_conn_;
  std::uint32_t num_bs_;
  double path_ratio_;
  std::vector<ClauseId> clauses_;
  std::uint32_t xid_ = 0;
};

// Runs the whole workload in-process through the same RuntimeDispatcher
// boundary the socket server uses and returns the canonical controller
// fingerprint -- the reference value the wire run must reproduce.
[[nodiscard]] std::uint64_t run_wire_workload_inprocess(
    const CellularTopology& topo, const WireWorkloadConfig& config);

// The external load generator: N connections x M outstanding requests
// against a serving port, one thread per connection, each sending its
// deterministic stream and keeping the pipeline full.  Latencies (in
// microseconds, send to matching reply) land in a telemetry-geometry
// histogram; after every connection finishes, a fresh connection fetches
// the server's stats (including the canonical fingerprint).
struct WireLoadResult {
  bool ok = false;       // every connection completed its stream
  std::string error;     // first failure, when !ok
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t failed = 0;  // replies with ok=false
  double seconds = 0;        // wall time of the load phase
  std::vector<std::uint64_t> latency_buckets;  // telemetry histogram fold
  ofp::ServerStatsMsg server{};  // post-run stats; fingerprint for parity
};

[[nodiscard]] WireLoadResult run_wire_load(std::uint16_t port,
                                           std::uint32_t num_bs,
                                           std::span<const ClauseId> clauses,
                                           const WireWorkloadConfig& config);

}  // namespace softcell
