// Shard-brain proof corpus (DESIGN.md section 16): the partitioned brain
// (per-shard UE state + one shared core behind the one-mutex commit
// stage) must stay OBSERVABLY identical to the per-shard-clone controller
// and node-map storage layout it replaced.  Those are gone; their verdicts
// live on as golden digests recorded while every mode still existed and
// agreed.  Three layers of evidence:
//
//   1. Unit contracts on the commit stage and the core's tag lookups:
//      read-your-writes (a returned tag is in every path_tag lookup
//      after), warm-hit short-circuit, out-of-band core mutations visible
//      at once with no listener wired, canonical-fingerprint stability,
//      and the pinned UE partition.
//   2. A scripted day: the same attach / flow / handoff / failover
//      sequence on three topologies must land on the pinned control
//      fingerprints at every checkpoint.
//   3. The randomized chaos corpus: every seed's full event digest
//      (per-packet observables, order-sensitive FNV-1a) must match its
//      pinned value, across three bands (default, runtime workers,
//      shortcuts off).
#include "runtime/shard_brain.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos_golden.hpp"
#include "sim/network.hpp"

namespace softcell {
namespace {

constexpr Ipv4Addr kServer = 0x08080808u;

class ShardBrainTest : public ::testing::Test {
 protected:
  ShardBrainTest()
      : topo_({.k = 4, .seed = 3}),
        brain_(topo_, make_table1_policy(), {.shards = 4}) {}

  UeId provision(std::uint32_t provider = 0,
                 BillingPlan plan = BillingPlan::kSilver) {
    const UeId ue(next_++);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = provider;
    p.plan = plan;
    brain_.provision_subscriber(ue, p);
    return ue;
  }

  ClauseId clause_for(AppType app) {
    SubscriberProfile p;
    p.provider = 0;
    p.plan = BillingPlan::kSilver;
    const auto* c = brain_.policy_snapshot()->match(p, app);
    EXPECT_NE(c, nullptr);
    return c->id;
  }

  CellularTopology topo_;
  ShardBrain brain_;
  std::uint32_t next_ = 1;
};

TEST_F(ShardBrainTest, CommitWritesTagBeforeReturning) {
  const UeId ue = provision();
  const auto clause = clause_for(AppType::kWeb);
  const auto tag = brain_.request_policy_path(ue, 5, clause);
  // Read-your-writes: a lookup made after the commit returned must
  // already find the tag -- no "install done, tag not yet visible" window.
  const auto seen = brain_.core().path_tag(clause, 5);
  ASSERT_TRUE(seen);
  EXPECT_EQ(*seen, tag);
}

TEST_F(ShardBrainTest, WarmHitSkipsCommitStage) {
  const UeId ue = provision();
  const auto clause = clause_for(AppType::kWeb);
  const auto& commits = telemetry::Registry::global().counter("commit.ops");
  const auto before = commits.value();
  const auto t1 = brain_.request_policy_path(ue, 2, clause);
  ASSERT_EQ(commits.value(), before + 1);
  const auto installs = brain_.core().path_installs();
  // Second request resolves from the core's installed-path map: same tag,
  // no commit, no core install.
  const auto t2 = brain_.request_policy_path(ue, 2, clause);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(commits.value(), before + 1);
  EXPECT_EQ(brain_.core().path_installs(), installs);
}

TEST_F(ShardBrainTest, BatchTagsMatchSingleRequests) {
  const UeId ue = provision();
  const auto web = clause_for(AppType::kWeb);
  const auto voip = clause_for(AppType::kVoip);
  const std::vector<Controller::PathRequest> reqs = {
      {.bs = 1, .clause = web},
      {.bs = 3, .clause = voip},
      {.bs = 1, .clause = web},  // duplicate inside one batch
  };
  const auto tags = brain_.request_policy_paths(ue, reqs);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], tags[2]);
  EXPECT_EQ(tags[0], brain_.request_policy_path(ue, 1, web));
  EXPECT_EQ(tags[1], brain_.request_policy_path(ue, 3, voip));
}

TEST_F(ShardBrainTest, ShardRoutingMatchesLegacyClones) {
  // The splitmix64 partition the legacy per-shard-clone controller used,
  // pinned as one FNV-1a fold of shard_of(UeId(1..512)) at 4 shards: the
  // chaos and scripted goldens below were recorded on that partition.
  constexpr std::uint64_t kGoldenPartition = 0xa1cdccd597540168ull;
  ASSERT_EQ(brain_.shard_count(), 4u);
  std::uint64_t fold = 0xcbf29ce484222325ull;
  for (std::uint64_t u = 1; u <= 512; ++u)
    fold = (fold ^ brain_.shard_of(UeId(u))) * 0x100000001b3ull;
  EXPECT_EQ(fold, kGoldenPartition);
}

TEST_F(ShardBrainTest, FingerprintFoldInMatchesSingleBrain) {
  // Replay one request history against the brain and against a plain
  // single controller: the fold-in fingerprint must come out bit-equal.
  Controller single(topo_, make_table1_policy());
  const auto web = clause_for(AppType::kWeb);
  const auto video = clause_for(AppType::kVideo);
  for (std::uint32_t i = 1; i <= 24; ++i) {
    const UeId ue(1000 + i);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = 0;
    p.plan = BillingPlan::kSilver;
    brain_.provision_subscriber(ue, p);
    single.provision_subscriber(ue, p);
    brain_.attach_ue(ue, i % 12, LocalUeId(i));
    single.attach_ue(ue, i % 12, LocalUeId(i));
    brain_.request_policy_path(ue, i % 12, web);
    single.request_policy_path(i % 12, web);
    if (i % 3 == 0) {
      brain_.request_policy_path(ue, i % 12, video);
      single.request_policy_path(i % 12, video);
    }
    if (i % 5 == 0) {
      brain_.detach_ue(ue);
      single.detach_ue(ue);
    }
  }
  EXPECT_EQ(brain_.state_fingerprint(), single.state_fingerprint());
}

TEST_F(ShardBrainTest, CanonicalFingerprintIsOrderIndependent) {
  // Two brains install the same (bs, clause) key set in opposite orders:
  // raw tag assignments differ, but recompact renumbers tags in canonical
  // clause-major order, so the canonical fingerprints must agree.  This is
  // the property that lets concurrent benches compare runs.
  const auto web = clause_for(AppType::kWeb);
  const auto voip = clause_for(AppType::kVoip);
  ShardBrain other(topo_, make_table1_policy(), {.shards = 4});
  const UeId ue = provision();
  SubscriberProfile p;
  p.ue = ue;
  p.provider = 0;
  p.plan = BillingPlan::kSilver;
  other.provision_subscriber(ue, p);
  for (std::uint32_t bs = 0; bs < 8; ++bs) {
    brain_.request_policy_path(ue, bs, web);
    brain_.request_policy_path(ue, bs, voip);
  }
  for (std::uint32_t bs = 8; bs-- > 0;) {
    other.request_policy_path(ue, bs, voip);
    other.request_policy_path(ue, bs, web);
  }
  EXPECT_EQ(brain_.canonical_fingerprint(), other.canonical_fingerprint());
}

TEST_F(ShardBrainTest, DirectCoreMutationIsVisibleAtOnce) {
  const UeId ue = provision();
  brain_.attach_ue(ue, 4, LocalUeId(1));
  const auto web = clause_for(AppType::kWeb);
  const auto voip = clause_for(AppType::kVoip);
  const auto old_tag = brain_.request_policy_path(ue, 4, web);
  brain_.request_policy_path(ue, 4, voip);
  const auto tag_in = [&](ClauseId clause) -> std::optional<PolicyTag> {
    for (const auto& c : brain_.fetch_classifiers(ue, 4))
      if (c.clause == clause) return c.tag;
    ADD_FAILURE() << "no classifier for clause " << clause.value();
    return std::nullopt;
  };
  const auto& commits = telemetry::Registry::global().counter("commit.ops");
  const auto before = commits.value();

  // Quiescent maintenance straight on the core, bypassing the commit
  // stage, with no classifier listener wired: the very next fetch and
  // warm-hit request must already see the migrated tag.
  const auto mig = brain_.core().migrate_path(4, web);
  ASSERT_EQ(mig.old_tag, old_tag);
  ASSERT_NE(mig.new_tag, old_tag);
  EXPECT_EQ(tag_in(web), mig.new_tag);
  EXPECT_EQ(brain_.request_policy_path(ue, 4, web), mig.new_tag);

  // Recompaction renumbers every path; the core's store records the tags
  // it reinstalled, independently of the installed-path map.
  brain_.core().drain_old_path(4, web, mig.old_tag);
  brain_.core().recompact();
  const auto rebuilt = brain_.core().store().path(web, 4);
  ASSERT_TRUE(rebuilt);
  EXPECT_NE(*rebuilt, mig.new_tag);
  for (const ClauseId clause : {web, voip}) {
    const auto expected = brain_.core().store().path(clause, 4);
    ASSERT_TRUE(expected);
    EXPECT_EQ(tag_in(clause), *expected);
    EXPECT_EQ(brain_.request_policy_path(ue, 4, clause), *expected);
  }
  // Every request above was a warm hit: none reached the commit stage.
  EXPECT_EQ(commits.value(), before);
}

TEST_F(ShardBrainTest, FailoverRebuildRepartitionsByShard) {
  std::vector<std::pair<UeId, std::uint32_t>> placed;
  for (std::uint32_t i = 1; i <= 16; ++i) {
    const UeId ue = provision();
    brain_.attach_ue(ue, i % 12, LocalUeId(i));
    placed.emplace_back(ue, i % 12);
  }
  const auto before = brain_.state_fingerprint();
  brain_.fail_primary_replica();
  brain_.rebuild_locations([&](const auto& emit) {
    for (const auto& [ue, bs] : placed)
      emit(ue, UeLocation{.bs = bs, .local = LocalUeId(ue.value())});
  });
  for (const auto& [ue, bs] : placed) {
    const auto loc = brain_.ue_location(ue);
    ASSERT_TRUE(loc) << "lost UE " << ue.value();
    EXPECT_EQ(loc->bs, bs);
  }
  // Location ops never bump store versions, so the fingerprint survives
  // the failover round-trip -- same invariant a single store holds.
  EXPECT_EQ(brain_.state_fingerprint(), before);
}

// --- scripted network day ---------------------------------------------------
// One deterministic end-to-end script (attach, flows, handoff, failover):
// the control fingerprint at every checkpoint must equal the pinned one.

std::vector<std::uint64_t> run_script(unsigned topo_seed) {
  SoftCellNetwork net(SoftCellConfig{.topo = {.k = 4, .seed = topo_seed}},
                      make_table1_policy());
  std::vector<std::uint64_t> checkpoints;
  std::vector<UeId> ues;
  std::vector<SoftCellNetwork::FlowHandle> flows;
  for (std::uint32_t i = 0; i < 10; ++i) {
    SubscriberProfile p;
    p.plan = i % 2 ? BillingPlan::kGold : BillingPlan::kSilver;
    const UeId ue = net.add_subscriber(p);
    net.attach(ue, i % 12);
    ues.push_back(ue);
    flows.push_back(net.open_flow(ue, kServer + i, 80));
    EXPECT_TRUE(net.send_uplink(flows.back(), TcpFlag::kSyn).delivered);
  }
  checkpoints.push_back(net.control_fingerprint());

  for (std::uint32_t i = 0; i < 10; i += 2) {
    const auto ticket = net.handoff(ues[i], (i + 5) % 12);
    // Pre-handoff downlink rides the BS-BS tunnel; it must be delivered
    // before completion tears the tunnel down (the flow then ends).
    EXPECT_TRUE(net.send_downlink(flows[i]).delivered);
    EXPECT_TRUE(net.send_uplink(flows[i], TcpFlag::kFin).delivered);
    net.complete_handoff(ticket);
  }
  checkpoints.push_back(net.control_fingerprint());

  net.fail_controller_primary_and_recover();
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto f = net.open_flow(ues[i], kServer + 100 + i, 1935);
    EXPECT_TRUE(net.send_uplink(f, TcpFlag::kSyn).delivered);
  }
  net.detach(ues[3]);
  net.detach(ues[7]);
  checkpoints.push_back(net.control_fingerprint());
  return checkpoints;
}

// Checkpoints pinned from the legacy per-shard-clone brain, which the
// shard brain matched bit for bit on every topology seed.
struct ScriptGolden {
  unsigned topo_seed;
  std::vector<std::uint64_t> checkpoints;
};
const ScriptGolden kGoldenScripts[] = {
    {7, {0x70b074da03906a43ull, 0x70b074da03906a43ull, 0x89ea965c82af308bull}},
    {19, {0x0532a467fe886643ull, 0x0532a467fe886643ull, 0x2122e31b18763465ull}},
    {31, {0x95b1beabb8431bc5ull, 0x95b1beabb8431bc5ull, 0x5a69a3c08ef9fcc8ull}},
};

TEST(ShardBrainDifferential, ScriptedFingerprintsMatchLegacy) {
  for (const auto& golden : kGoldenScripts)
    EXPECT_EQ(run_script(golden.topo_seed), golden.checkpoints)
        << "topo seed " << golden.topo_seed;
}

// --- pinned chaos corpus ----------------------------------------------------
// The golden table lives in chaos_golden.hpp; test_mem replays it from the
// storage-layout side.

using chaos_golden::corpus_options;
using chaos_golden::golden_chaos_corpus;

TEST(ShardBrainDifferential, ChaosDigestsMatchLegacy) {
  for (const auto& golden : golden_chaos_corpus()) {
    const auto r = chaos::run_scenario(chaos::Scenario::generate(golden.seed),
                                       corpus_options(golden.seed));
    ASSERT_TRUE(r.ok) << "seed " << golden.seed;
    EXPECT_EQ(r.digest, golden.digest) << "seed " << golden.seed;
  }
}

}  // namespace
}  // namespace softcell
