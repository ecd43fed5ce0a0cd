// Cbench-style control-plane load generators (paper section 6.2).
//
// The paper benchmarks its Floodlight-based controller with Cbench: N
// emulated switches flood the controller with packet-in events, and the
// harness measures how many events per second the controller sustains.
// Here the "packet-in" events are the two real control-plane entry points:
//   * classifier-fetch requests (what the central controller serves when a
//     UE arrives or moves -- 2.2M req/s at 15 threads in the paper);
//   * new-flow handling at the local agent, with a controlled classifier
//     cache-hit ratio (Table 2: throughput vs. hit ratio).
#pragma once

#include <cstdint>

#include "agent/local_agent.hpp"
#include "ctrl/controller.hpp"

namespace softcell {

struct MicroBenchResult {
  std::uint64_t ops = 0;
  double seconds = 0;

  [[nodiscard]] double per_second() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  }
};

// Drives Controller::fetch_classifiers from `threads` worker threads, each
// emulating a share of `num_agents` local agents with `ues_per_agent`
// provisioned UEs.  Returns the aggregate throughput.
MicroBenchResult bench_classifier_fetch(Controller& controller,
                                        std::uint32_t num_agents,
                                        std::uint32_t ues_per_agent,
                                        std::uint32_t threads,
                                        std::uint64_t ops_per_thread);

// Table 2 harness: drives LocalAgent::handle_new_flow over a real
// controller with a controlled cache-hit ratio.
//   hit  = a new flow of a UE whose clause path is already installed here;
//   miss = the first flow needing a clause path at a fresh base station,
//          forcing a controller round-trip and a path install.
// The topology/policy are built internally (clause-per-provider so each
// subscriber profile maps to its own policy path).
struct AgentBenchConfig {
  std::uint32_t k = 4;             // topology size
  std::uint32_t num_clauses = 32;  // provider-based clauses
  double hit_ratio = 0.8;
  std::uint64_t ops = 50'000;
  std::uint64_t seed = 1;
};
struct AgentBenchResult {
  MicroBenchResult total;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
AgentBenchResult bench_agent_flows(const AgentBenchConfig& config);

}  // namespace softcell
