// Commit-stage concurrency stress (run under -DSOFTCELL_SANITIZE=thread by
// tier1.sh): threads race cross-shard installs through the CoreCommitter's
// one stage mutex while readers spin on the RCU PathView.  Asserts the
// three ordering rules DESIGN.md section 16 promises:
//
//   * total order  -- the commit observer sees strictly increasing
//     sequence numbers, one per applied op, no op lost or duplicated;
//   * read-your-writes -- the snapshot loaded right after a commit
//     returns always contains the committed tag;
//   * exactly-once install -- racing duplicates of the same (bs, clause)
//     resolve to one tag and one core install.
//
// Plus the error path: an op that throws still takes a sequence number and
// republishes the view before its error reaches the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ctrl/core_committer.hpp"
#include "runtime/shard_brain.hpp"
#include "util/annotations.hpp"

namespace softcell {
namespace {

std::vector<ClauseId> distinct_clauses(const ServicePolicy& policy) {
  std::vector<ClauseId> out;
  for (const auto& clause : policy.clauses()) out.push_back(clause.id);
  return out;
}

TEST(CommitStageStress, RacingInstallsKeepTotalOrderAndNoLostOps) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 60;
  constexpr std::uint32_t kBsCount = 12;

  CellularTopology topo({.k = 4, .seed = 3});
  auto policy = std::make_shared<const ServicePolicy>(make_table1_policy());
  const auto clauses = distinct_clauses(*policy);
  ASSERT_GE(clauses.size(), 2u);
  CoreCommitter committer(topo, policy, {});

  // Observer log: the committer invokes it once per applied op, under its
  // stage mutex; the test mutex guards the log against the final reads.
  struct Observed {
    std::size_t shard;
    std::uint64_t seq;
  };
  sc::Mutex log_mu;
  std::vector<Observed> log;
  committer.set_commit_observer([&](std::size_t shard, std::uint64_t seq) {
    sc::LockGuard lock(log_mu);
    log.push_back({shard, seq});
  });

  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::uint32_t bs = static_cast<std::uint32_t>((r + t) % kBsCount);
        const ClauseId clause = clauses[(r / kBsCount + t) % clauses.size()];
        const PolicyTag tag = committer.commit_path(t, bs, clause);
        submitted.fetch_add(1, std::memory_order_relaxed);
        // Read-your-writes: every snapshot loaded after the commit
        // returned carries the tag (publish happens BEFORE completion).
        const auto view = committer.view();
        const PolicyTag* seen = view->path(clause, bs);
        ASSERT_NE(seen, nullptr) << "bs " << bs;
        ASSERT_EQ(*seen, tag) << "bs " << bs;
      }
    });
  }
  // Racing readers: snapshot versions never go backwards, and a key once
  // seen never disappears from a later snapshot (no recompact here).
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last_version = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto view = committer.view();
      ASSERT_GE(view->version, last_version);
      last_version = view->version;
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Total order, no lost ops: one observation per submitted op, sequence
  // numbers strictly increasing in observation order.
  ASSERT_EQ(log.size(), submitted.load());
  std::vector<std::size_t> per_shard(kThreads, 0);
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(log[i - 1].seq, log[i].seq);
    }
    ASSERT_LT(log[i].shard, kThreads);
    ++per_shard[log[i].shard];
  }
  // Each submitter blocks per op, so its ops arrive (and with total order,
  // apply) in program order: per-shard FIFO.  Count check closes the loop.
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(per_shard[t], kRounds);

  // Exactly-once: distinct (bs, clause) keys == core installs, and the
  // final snapshot resolves every key.
  const auto final_view = committer.view();
  std::map<std::pair<std::uint32_t, std::uint64_t>, PolicyTag> keys;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::uint32_t bs = static_cast<std::uint32_t>((r + t) % kBsCount);
      const ClauseId clause = clauses[(r / kBsCount + t) % clauses.size()];
      const PolicyTag* tag = final_view->path(clause, bs);
      ASSERT_NE(tag, nullptr);
      keys.emplace(std::pair{bs, clause.value()}, *tag);
    }
  }
  EXPECT_EQ(committer.core().path_installs(), keys.size());
}

TEST(CommitStageStress, FailedOpTakesSeqRepublishesAndRethrows) {
  CellularTopology topo({.k = 4, .seed = 3});
  auto policy = std::make_shared<const ServicePolicy>(make_table1_policy());
  const auto clauses = distinct_clauses(*policy);
  CoreCommitter committer(topo, policy, {});
  std::vector<std::uint64_t> seqs;
  committer.set_commit_observer(
      [&](std::size_t, std::uint64_t seq) { seqs.push_back(seq); });

  const std::uint64_t version_before = committer.view()->version;
  EXPECT_THROW(committer.commit_path(0, 0, ClauseId(9999)),
               std::out_of_range);
  ASSERT_EQ(seqs.size(), 1u);  // the failed op's seq reached the observer
  EXPECT_GT(committer.view()->version, version_before);

  // The stage is not wedged: the next op on the same committer commits
  // and its tag is in the published view.
  const PolicyTag tag = committer.commit_path(0, 0, clauses.front());
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_LT(seqs[0], seqs[1]);
  const auto view = committer.view();
  const PolicyTag* seen = view->path(clauses.front(), 0);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(*seen, tag);
}

TEST(CommitStageStress, BrainReadersRaceCommitsWithoutTearing) {
  // Full-brain variant: shard-store readers (fetch_classifiers through the
  // RCU view) race path commits on every shard.  TSan is the real oracle
  // here; the assertions just pin the visible contract.
  CellularTopology topo({.k = 4, .seed = 7});
  ShardBrain brain(topo, make_table1_policy(), {.shards = 4});
  const auto clauses = distinct_clauses(*brain.policy_snapshot());

  // Single-threaded setup: provision + attach a population spread over
  // every shard, before the racing phase begins.
  std::vector<UeId> ues;
  for (std::uint32_t i = 1; i <= 64; ++i) {
    const UeId ue(i);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = 0;
    p.plan = BillingPlan::kSilver;
    brain.provision_subscriber(ue, p);
    brain.attach_ue(ue, i % 12, LocalUeId(i));
    ues.push_back(ue);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t r = 0; r < 40; ++r) {
        const UeId ue = ues[(r * 7 + t * 13) % ues.size()];
        const auto tag = brain.request_policy_path(
            ue, static_cast<std::uint32_t>(r % 12),
            clauses[(r + t) % clauses.size()]);
        ASSERT_TRUE(tag.valid());
      }
    });
  }
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = t;
      while (!stop.load(std::memory_order_acquire)) {
        const UeId ue = ues[i++ % ues.size()];
        const auto cls =
            brain.fetch_classifiers(ue, static_cast<std::uint32_t>(i % 12));
        // Compilation is against ONE view snapshot: tags either absent or
        // valid, never torn.
        ASSERT_EQ(cls.size(), 5u);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  // Every committed key is in the final view.
  const auto view = brain.path_view();
  ASSERT_GT(view->paths.size(), 0u);
  EXPECT_EQ(brain.core().path_installs(), view->paths.size());
}

}  // namespace
}  // namespace softcell
