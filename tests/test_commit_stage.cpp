// Commit-stage concurrency stress (run under -DSOFTCELL_SANITIZE=thread by
// tier1.sh): threads race cross-shard installs through the CoreCommitter's
// one stage mutex while readers look tags up through the core's
// path_tag(), which takes only the path-map leaf lock.  Asserts the three
// ordering rules DESIGN.md section 16 promises:
//
//   * total order  -- the commit observer sees strictly increasing
//     sequence numbers, one per applied op, no op lost or duplicated;
//   * read-your-writes -- a path_tag lookup made right after a commit
//     returns always finds the committed tag (written-before-complete);
//   * exactly-once install -- racing duplicates of the same (bs, clause)
//     resolve to one tag and one core install.
//
// Plus the error path: an op that throws still takes a sequence number
// before its error reaches the caller; and classifier readers racing path
// commits and recompactions see every tag absent or valid.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
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
        // Read-your-writes: every lookup after the commit returned finds
        // the tag (the core writes it BEFORE completion).
        const auto seen = committer.core().path_tag(clause, bs);
        ASSERT_TRUE(seen) << "bs " << bs;
        ASSERT_EQ(*seen, tag) << "bs " << bs;
      }
    });
  }
  // Racing reader: a tag, once seen, never changes and never disappears
  // (no migration or recompact here).
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::map<std::pair<std::uint32_t, ClauseId>, PolicyTag> seen;
    while (!stop.load(std::memory_order_acquire)) {
      for (std::uint32_t bs = 0; bs < kBsCount; ++bs) {
        for (const ClauseId clause : clauses) {
          const auto tag = committer.core().path_tag(clause, bs);
          const auto key = std::pair{bs, clause};
          const auto it = seen.find(key);
          if (it != seen.end()) {
            ASSERT_TRUE(tag) << "bs " << bs;
            ASSERT_EQ(*tag, it->second) << "bs " << bs;
          } else if (tag) {
            seen.emplace(key, *tag);
          }
        }
      }
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
  // core resolves every key.
  std::map<std::pair<std::uint32_t, std::uint64_t>, PolicyTag> keys;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::uint32_t bs = static_cast<std::uint32_t>((r + t) % kBsCount);
      const ClauseId clause = clauses[(r / kBsCount + t) % clauses.size()];
      const auto tag = committer.core().path_tag(clause, bs);
      ASSERT_TRUE(tag);
      keys.emplace(std::pair{bs, clause.value()}, *tag);
    }
  }
  EXPECT_EQ(committer.core().path_installs(), keys.size());
}

TEST(CommitStageStress, FailedOpTakesSeqAndRethrows) {
  CellularTopology topo({.k = 4, .seed = 3});
  auto policy = std::make_shared<const ServicePolicy>(make_table1_policy());
  const auto clauses = distinct_clauses(*policy);
  CoreCommitter committer(topo, policy, {});
  std::vector<std::uint64_t> seqs;
  committer.set_commit_observer(
      [&](std::size_t, std::uint64_t seq) { seqs.push_back(seq); });

  EXPECT_THROW(committer.commit_path(0, 0, ClauseId(9999)),
               std::out_of_range);
  ASSERT_EQ(seqs.size(), 1u);  // the failed op's seq reached the observer

  // The stage is not wedged: the next op on the same committer commits
  // and its tag is in the core's installed-path map.
  const PolicyTag tag = committer.commit_path(0, 0, clauses.front());
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_LT(seqs[0], seqs[1]);
  const auto seen = committer.core().path_tag(clauses.front(), 0);
  ASSERT_TRUE(seen);
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
        // Each tag is looked up under the core's path-map lock: absent or
        // valid, never torn.
        ASSERT_EQ(cls.size(), 5u);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  // Every committed key resolves: one install per distinct key.
  std::set<std::pair<std::uint32_t, ClauseId>> keys;
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t r = 0; r < 40; ++r) {
      const auto bs = static_cast<std::uint32_t>(r % 12);
      const ClauseId clause = clauses[(r + t) % clauses.size()];
      ASSERT_TRUE(brain.core().path_tag(clause, bs));
      keys.emplace(bs, clause);
    }
  }
  EXPECT_EQ(brain.core().path_installs(), keys.size());
}

TEST(CommitStageStress, ClassifierReadersRaceCommitsAndRecompaction) {
  // Readers fetch classifiers (each tag looked up under the core's
  // path-map lock, inside the shard's read lock) while one writer
  // alternates path commits with recompactions, which clear the installed
  // map and reinstall every key.  A reader may see a tag absent until its
  // key is reinstalled, never a torn or dangling one; TSan checks the
  // lock protocol.
  CellularTopology topo({.k = 4, .seed = 7});
  ShardBrain brain(topo, make_table1_policy(), {.shards = 4});
  const auto clauses = distinct_clauses(*brain.policy_snapshot());

  std::vector<UeId> ues;
  for (std::uint32_t i = 1; i <= 32; ++i) {
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
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = t;
      while (!stop.load(std::memory_order_acquire)) {
        const UeId ue = ues[i++ % ues.size()];
        const auto cls =
            brain.fetch_classifiers(ue, static_cast<std::uint32_t>(i % 12));
        ASSERT_EQ(cls.size(), 5u);
        for (const auto& c : cls) {
          if (c.tag) {
            ASSERT_TRUE(c.tag->valid());
          }
        }
      }
    });
  }
  std::set<std::pair<std::uint32_t, ClauseId>> keys;
  for (std::size_t r = 0; r < 48; ++r) {
    const auto bs = static_cast<std::uint32_t>(r % 12);
    const ClauseId clause = clauses[r % clauses.size()];
    ASSERT_TRUE(
        brain.request_policy_path(ues[r % ues.size()], bs, clause).valid());
    keys.emplace(bs, clause);
    // canonical_fingerprint() recompacts through the commit stage.
    if (r % 6 == 5) static_cast<void>(brain.canonical_fingerprint());
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  // After the last recompaction every key is back under a valid tag.
  for (const auto& [bs, clause] : keys) {
    const auto tag = brain.core().path_tag(clause, bs);
    ASSERT_TRUE(tag);
    EXPECT_TRUE(tag->valid());
  }
}

}  // namespace
}  // namespace softcell
