// Churned-state fingerprint regression: the million-UE bench does not only
// grow the population -- it detaches, re-attaches, and storms handoffs over
// resident state.  This test pins the same property at test scale: the
// control fingerprint after a churned day equals the value that the slab
// and node-map storage layouts and both brain modes (shard brain and
// per-shard clones) all produced before the second layout and brain were
// removed, and repeat runs reproduce it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/network.hpp"

namespace softcell {
namespace {

// A miniature of bench_million_ue's churned diurnal day: attach a
// population, open flows for a slice, detach + re-attach a slice at a
// different base station, and run a handoff storm over another slice.
std::uint64_t churned_fingerprint() {
  SoftCellNetwork net(SoftCellConfig{.topo = {.k = 4, .seed = 91}},
                      make_table1_policy());
  const std::uint32_t num_bs = net.topology().num_base_stations();
  constexpr std::uint32_t kUes = 240;

  std::vector<UeId> ues;
  ues.reserve(kUes);
  for (std::uint32_t i = 0; i < kUes; ++i) {
    SubscriberProfile p;
    p.plan = static_cast<BillingPlan>(i % 3);
    p.device = static_cast<DeviceClass>(i % 5);
    const UeId ue = net.add_subscriber(p);
    net.attach(ue, i % num_bs);
    ues.push_back(ue);
    if (i % 8 == 0) {
      const auto flow = net.open_flow(ue, 0x08000001u + i, 80);
      EXPECT_TRUE(net.send_uplink(flow, TcpFlag::kSyn).delivered);
    }
  }
  // Detach / re-idle churn: a quarter of the population leaves and comes
  // back somewhere else.
  for (std::uint32_t i = 1; i < kUes; i += 4) {
    net.detach(ues[i]);
    net.attach(ues[i], (i + 7) % num_bs);
  }
  // Handoff storm over an eighth of the resident population.
  for (std::uint32_t i = 3; i < kUes; i += 8) {
    const auto ticket = net.handoff(ues[i], ((i % num_bs) + 1) % num_bs);
    net.complete_handoff(ticket);
  }
  return net.control_fingerprint();
}

// Pinned from the node-map layout and the legacy per-shard-clone brain,
// which both landed on this value for the churned day.
constexpr std::uint64_t kGoldenChurned = 0xe07a69844b67ad51ull;

TEST(ScaleChurn, FingerprintIdenticalAcrossLayoutsModesAndRuns) {
  EXPECT_EQ(churned_fingerprint(), kGoldenChurned);
  EXPECT_EQ(churned_fingerprint(), kGoldenChurned) << "repeat run diverged";
}

}  // namespace
}  // namespace softcell
