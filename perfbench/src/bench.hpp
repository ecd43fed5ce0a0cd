// perfbench harness pieces: the in-process reference, the wire load
// generator and the layer ladder.  main.cpp wires them to subcommands;
// run.py drives the subcommands and the softcell-serverd process.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/shard_brain.hpp"
#include "topo/cellular.hpp"
#include "workload.hpp"

namespace perfbench {

// Topology and clause ids of the server shape (cheap; every subcommand
// needs them to rebuild the streams).
struct Base {
  softcell::CellularTopology topo;
  std::vector<softcell::ClauseId> clauses;
  Base();
  [[nodiscard]] std::uint32_t num_bs() const {
    return topo.num_base_stations();
  }
};

// A provisioned in-process brain of the server shape, built the way
// softcell-serverd builds its own.
struct Brain {
  std::unique_ptr<softcell::CellularTopology> topo;
  std::unique_ptr<softcell::ShardBrain> brain;
  double brain_s = 0;      // topology, policy and brain construction
  double provision_s = 0;  // provisioning + attaching the 1M UEs
};
[[nodiscard]] Brain build_brain();

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sampling stride for span files: about 2000 requests per layer.
[[nodiscard]] inline std::uint64_t span_stride(std::uint64_t total) {
  return total / 2000 + 1;
}

// --- reference ---------------------------------------------------------------

// The deterministic 1-worker in-process run of the same streams: what the
// served run must reproduce.
struct Reference {
  std::uint64_t fingerprint = 0;    // canonical controller fingerprint
  std::uint64_t core_rules = 0;     // core/gateway rules after the streams
  std::uint64_t core_installs = 0;  // Algorithm-1 installs (first installs)
  std::uint64_t path_requests = 0;
  std::uint64_t errors = 0;         // replies with ok=false
  // Per-xid classifier digest / count; filled for fetch_1m only, where no
  // install can change a fetch's answer mid-run.
  std::vector<std::uint64_t> digest;
  std::vector<std::uint32_t> count;
};

[[nodiscard]] Reference run_reference(const Streams& s);
void write_reference(const std::string& path, const Reference& ref);
[[nodiscard]] Reference read_reference(const std::string& path);

// --- wire --------------------------------------------------------------------

// Drives a running softcell-serverd over loopback TCP: the open-loop phase
// at the mix's rate, then the closed-loop Cbench phase, then a stats probe.
// Prints its result as one JSON line; returns false when a correctness
// check failed.
bool run_wire(std::uint16_t port, int server_pid, const Streams& s,
              const Reference& ref, bool trace, const std::string& span_path);

// --- ladder ------------------------------------------------------------------

// Replays the streams in-process down the layers (RuntimeDispatcher,
// ControlPlaneRuntime::post, direct ShardBrain calls on 1 and 2 threads)
// and prints the per-layer metrics as one JSON line.
bool run_ladder(const Streams& s, const Reference& ref,
                const std::string& span_path);

}  // namespace perfbench
