#include "workload/cbench.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "workload/wire_workload.hpp"

namespace softcell {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

MicroBenchResult bench_classifier_fetch(Controller& controller,
                                        std::uint32_t num_agents,
                                        std::uint32_t ues_per_agent,
                                        std::uint32_t threads,
                                        std::uint64_t ops_per_thread) {
  // Provision the subscriber base the emulated agents will ask about.
  const std::uint64_t total_ues =
      static_cast<std::uint64_t>(num_agents) * ues_per_agent;
  for (std::uint64_t i = 0; i < total_ues; ++i) {
    SubscriberProfile p;
    p.plan = static_cast<BillingPlan>(i % 3);
    p.device = static_cast<DeviceClass>(i % 5);
    controller.provision_subscriber(UeId(static_cast<std::uint32_t>(i + 1)),
                                    p);
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      // One deterministic stream per worker thread (see util/rng.hpp).
      Rng rng = Rng::stream(0x5EEDCELLu, w);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto idx = rng.next_below(total_ues);
        const auto ue = UeId(static_cast<std::uint32_t>(idx + 1));
        const auto bs = static_cast<std::uint32_t>(idx / ues_per_agent);
        // The emulated agent asks for this UE's classifiers, as it would on
        // UE arrival or handoff.
        const auto cls = controller.fetch_classifiers(ue, bs);
        if (cls.empty()) throw std::logic_error("empty classifier set");
      }
    });
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  return MicroBenchResult{ops_per_thread * threads, seconds_since(start)};
}

AgentBenchResult bench_agent_flows(const AgentBenchConfig& config) {
  // Build a real controller over a real topology with one clause per
  // "provider" so each subscriber profile maps to its own policy path.
  CellularTopology topo({.k = config.k, .seed = config.seed});
  Controller controller(topo,
                        make_wire_policy(topo, config.num_clauses, nullptr));
  const PortCodec codec(10);

  const std::uint32_t num_bs = topo.num_base_stations();
  const std::uint64_t miss_budget =
      static_cast<std::uint64_t>(num_bs) * config.num_clauses;

  std::uint64_t ops = config.ops;
  if (config.hit_ratio < 1.0) {
    const auto cap = static_cast<std::uint64_t>(
        static_cast<double>(miss_budget) / (1.0 - config.hit_ratio));
    ops = std::min(ops, cap);
  }

  // Lazily constructed per-base-station access edge.
  std::vector<std::unique_ptr<AccessSwitch>> access(num_bs);
  std::vector<std::unique_ptr<LocalAgent>> agents(num_bs);
  const auto agent_at = [&](std::uint32_t bs) -> LocalAgent& {
    if (!agents[bs]) {
      const NodeId node = topo.access_switch(bs);
      const auto path = controller.routes().path(node, topo.gateway());
      access[bs] = std::make_unique<AccessSwitch>(node, bs, path.at(1));
      agents[bs] = std::make_unique<LocalAgent>(bs, topo.plan(), codec,
                                                controller, *access[bs]);
    }
    return *agents[bs];
  };

  // Pre-attach one UE per (bs, clause) that the run may touch, outside the
  // timed region (attachment is a UE-arrival event, not a flow event).
  std::uint32_t next_ue = 1;
  struct Endpoint {
    UeId ue;
    std::uint32_t bs;
    Ipv4Addr perm;
  };
  const auto misses_planned = std::max<std::uint64_t>(
      1, ops - static_cast<std::uint64_t>(
                   static_cast<double>(ops) * config.hit_ratio));
  std::vector<Endpoint> cold;  // (bs, clause) pairs not yet path-installed
  cold.reserve(misses_planned);
  for (std::uint64_t i = 0; i < misses_planned && i < miss_budget; ++i) {
    const auto bs = static_cast<std::uint32_t>(i % num_bs);
    const auto clause = static_cast<std::uint32_t>(i / num_bs);
    SubscriberProfile p;
    p.provider = 100 + clause;
    const UeId ue(next_ue++);
    controller.provision_subscriber(ue, p);
    const Ipv4Addr perm = 0x64400000u + ue.value();
    agent_at(bs).ue_arrive(ue, perm);
    cold.push_back(Endpoint{ue, bs, perm});
  }

  AgentBenchResult result;
  Rng rng(config.seed * 31 + 5);
  std::vector<Endpoint> warm;
  warm.reserve(cold.size());
  std::uint16_t port_counter = 1024;
  std::size_t cold_next = 0;

  // Warm one endpoint so hit operations are possible from the start.
  {
    const Endpoint& e = cold[cold_next++];
    FlowKey f{e.perm, 0x08080808u, port_counter++, 80, IpProto::kTcp};
    (void)agent_at(e.bs).handle_new_flow(e.ue, f);
    warm.push_back(e);
  }

  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const bool want_hit = rng.next_double() < config.hit_ratio ||
                          cold_next >= cold.size();
    const Endpoint& e = want_hit
                            ? warm[rng.next_below(warm.size())]
                            : cold[cold_next];
    FlowKey f{e.perm, 0x08080808u + static_cast<Ipv4Addr>(i % 251),
              port_counter, 80, IpProto::kTcp};
    port_counter = static_cast<std::uint16_t>(
        port_counter == 65535 ? 1024 : port_counter + 1);
    const auto r = agent_at(e.bs).handle_new_flow(e.ue, f);
    if (r.verdict != LocalAgent::FlowVerdict::kInstalled)
      throw std::logic_error("bench_agent_flows: flow rejected");
    if (r.cache_hit) {
      ++result.hits;
    } else {
      ++result.misses;
      warm.push_back(e);
      ++cold_next;
    }
  }
  result.total = MicroBenchResult{ops, seconds_since(start)};
  return result;
}

}  // namespace softcell
