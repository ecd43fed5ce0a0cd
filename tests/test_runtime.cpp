// Concurrency tests for the control-plane runtime (src/runtime/).
//
// Labelled `concurrency` in CMake so the suite can be re-run under
// -DSOFTCELL_SANITIZE=thread (`ctest -L concurrency`): the queue, pool,
// snapshot and pipeline tests all exercise real cross-thread traffic.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/queue.hpp"
#include "runtime/shard_brain.hpp"
#include "runtime/snapshot.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "workload/wire_workload.hpp"

namespace softcell {
namespace {

// --- queues ------------------------------------------------------------------

TEST(BoundedMpmcQueue, FifoOrderAndBounds) {
  BoundedMpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full: backpressure, not growth
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(BoundedMpmcQueue, BlockingPushWaitsForSpace) {
  BoundedMpmcQueue<int> q(2);
  std::vector<int> got;
  std::thread consumer([&] {
    int v;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.pop(v));
      got.push_back(v);
    }
  });
  // Three of these pushes must block until the consumer frees a slot.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  consumer.join();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BoundedMpmcQueue, CloseDrainsThenFails) {
  BoundedMpmcQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));  // closed and drained
}

TEST(SpscRing, CrossThreadFifo) {
  constexpr int kItems = 100'000;
  SpscRing<int> ring(64);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i)
      while (!ring.try_push(i)) std::this_thread::yield();
  });
  int expect = 0, v = -1;
  while (expect < kItems) {
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expect);  // strict FIFO across threads
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- thread pool -------------------------------------------------------------

// Lock-discipline regression (softcell-verify Part A finding, PR 4):
// ThreadPool::stop() used to re-read `started_` *outside* lifecycle_mu_,
// racing a concurrent start().  A stale false sent stop() down the inline
// drain while start()'s freshly launched workers drained the same queues,
// so a task could run twice -- and the launched workers were never joined
// (std::terminate from ~thread).  started_ is now read in the same
// critical section that flips stopped_, and start() refuses to launch
// after stop().  Every accepted task must run exactly once, whichever
// side wins the race.
TEST(ThreadSafety, StopRacingStartRunsEveryTaskExactlyOnce) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> runs{0};
    ThreadPool<int> pool({.workers = 2, .start_suspended = true},
                         [&](unsigned, int&) { runs.fetch_add(1); });
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(pool.submit_to(i % 2, i));
    std::thread starter([&] { pool.start(); });
    std::thread stopper([&] { pool.stop(); });
    starter.join();
    stopper.join();
    EXPECT_EQ(runs.load(), 64) << "round " << round;
  }
}

TEST(ThreadPool, PinnedProducerFifoWithBackpressure) {
  // A tiny ring forces the producer through the spin-on-full path; order
  // must still hold (the determinism guarantee the runtime builds on).
  std::vector<int> seen;
  ThreadPool<int> pool({.workers = 1, .ring_capacity = 8},
                       [&](unsigned, int& v) { seen.push_back(v); });
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(pool.submit_to(0, i));
  pool.drain();
  ASSERT_EQ(seen.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(seen[i], i);
}

// Full-ring regression: a pinned producer that finds its SPSC ring full
// retries the push, so a failed push must leave the task intact -- moving
// it away on failure made the retry push an empty husk whose completion
// never fired.  A one-slot ring and a slow handler make nearly every
// submission take the retry path.
TEST(ThreadPool, FullRingRetryKeepsEveryCompletion) {
  constexpr int kTasks = 2000;
  std::atomic<int> ran{0};
  std::atomic<int> completions{0};
  {
    ThreadPool<std::function<void()>> pool(
        {.workers = 1, .ring_capacity = 1},
        [&](unsigned, std::function<void()>& task) {
          ran.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          if (task) task();
        });
    for (int i = 0; i < kTasks; ++i)
      ASSERT_TRUE(pool.submit_to(0, [&] { completions.fetch_add(1); }));
    pool.drain();
  }
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(completions.load(), kTasks);
}

TEST(ThreadPool, SharedQueueRunsEverything) {
  std::atomic<int> count{0};
  {
    ThreadPool<int> pool({.workers = 2},
                         [&](unsigned, int&) { count.fetch_add(1); });
    for (int i = 0; i < 500; ++i) EXPECT_TRUE(pool.submit(i));
    pool.drain();
    EXPECT_EQ(count.load(), 500);
    EXPECT_EQ(pool.processed(), 500u);
  }
}

TEST(ThreadPool, SuspendedPoolRunsAcceptedTasksOnStop) {
  std::vector<int> seen;
  {
    ThreadPool<int> pool({.workers = 1, .start_suspended = true},
                         [&](unsigned, int& v) { seen.push_back(v); });
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(pool.submit_to(0, i));
    EXPECT_TRUE(seen.empty());  // nothing runs before start()/stop()
  }
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ThreadPool, OverflowQueuePreservesEveryTaskBehindTheRing) {
  // A suspended single-worker pool with an exactly-sized ring: the main
  // thread claims the SPSC ring (first submit_to wins the owner CAS) and
  // fills all 7 usable slots; a second thread then takes the
  // foreign-producer path and its 8 submissions land in the bounded MPMC
  // overflow queue (capacity 8 -- a 9th would block).  On start the worker
  // drains the ring fully first (that is the per-shard FIFO guarantee),
  // then the overflow, losing nothing.
  std::vector<int> seen;
  ThreadPool<int> pool({.workers = 1,
                        .ring_capacity = 7,  // usable capacity exactly 7
                        .overflow_capacity = 8,
                        .start_suspended = true},
                       [&](unsigned, int& v) { seen.push_back(v); });
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(pool.submit_to(0, i));
  std::thread other([&] {
    for (int i = 100; i < 108; ++i) EXPECT_TRUE(pool.submit_to(0, i));
  });
  other.join();  // all 8 overflow pushes completed with no consumer running
  pool.start();
  pool.drain();
  ASSERT_EQ(seen.size(), 15u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(seen[i], i);  // ring first, FIFO
  for (int i = 0; i < 8; ++i) EXPECT_EQ(seen[7 + i], 100 + i);  // then overflow
  EXPECT_EQ(pool.processed(), 15u);
}

// --- versioned snapshot ------------------------------------------------------

TEST(VersionedSnapshot, ReadersNeverSeeTornState) {
  struct Pair {
    int a = 0;
    int b = 0;
  };
  VersionedSnapshot<Pair> snap(std::make_shared<const Pair>());
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto p = snap.load();
        ASSERT_EQ(p->a, p->b);  // the invariant every published object has
      }
    });
  for (int i = 1; i <= 1000; ++i)
    snap.update(std::make_shared<const Pair>(Pair{i, i}));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(snap.version(), 1001u);  // initial 1 + 1000 updates
  EXPECT_EQ(snap.load()->a, 1000);
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, HistogramQuantilesAndAggregation) {
  ShardMetrics a, b;
  for (int i = 0; i < 90; ++i) a.record_latency(1000);      // bucket [512,1024)
  for (int i = 0; i < 10; ++i) b.record_latency(1'000'000);
  a.count_request();
  b.count_request();
  b.count_coalesced();

  MetricsSnapshot snap;
  a.merge_into(snap);
  b.merge_into(snap);
  EXPECT_EQ(snap.requests, 2u);
  EXPECT_EQ(snap.coalesced_misses, 1u);
  EXPECT_EQ(snap.latency_count(), 100u);
  // Quantiles report the log-linear bucket's upper bound; 1000 and 1e6
  // both sit in the last sub-bucket of their octave, so the bounds land
  // on the octave boundary.
  EXPECT_EQ(snap.latency_quantile_ns(0.50), 1024u);
  EXPECT_EQ(snap.latency_quantile_ns(0.99), 1u << 20);
  EXPECT_LE(snap.latency_quantile_ns(0.50), snap.latency_quantile_ns(0.99));
}

// --- shard brain + runtime pipeline -------------------------------------------

void populate(ShardBrain& brain, std::uint32_t ues, std::uint32_t clauses,
              std::uint32_t num_bs) {
  for (std::uint32_t i = 0; i < ues; ++i) {
    const UeId ue(i + 1);
    SubscriberProfile p;
    p.ue = ue;
    p.provider = 100 + (i % clauses);
    brain.provision_subscriber(ue, p);
    brain.attach_ue(ue, i % num_bs, LocalUeId(static_cast<std::uint16_t>(i)));
  }
}

TEST(ShardBrainPartition, RoutesByUeAndPartitionsState) {
  CellularTopology topo({.k = 4, .seed = 1});
  ShardBrain brain(topo, make_wire_policy(topo, 4, nullptr), {.shards = 4});
  populate(brain, 64, 4, topo.num_base_stations());

  std::set<std::size_t> populated;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const UeId ue(i + 1);
    const auto shard = brain.shard_of(ue);
    ASSERT_LT(shard, brain.shard_count());
    // The owning shard has the UE's state; the other shards do not.
    ASSERT_TRUE(brain.ue_location(ue).has_value());
    EXPECT_TRUE(brain.shard(shard).ue_location(ue).has_value());
    for (std::size_t s = 0; s < brain.shard_count(); ++s) {
      if (s != shard) {
        EXPECT_FALSE(brain.shard(s).ue_location(ue).has_value());
      }
    }
    populated.insert(shard);
  }
  EXPECT_EQ(populated.size(), brain.shard_count());  // splitmix spreads 64 UEs
}

TEST(ShardBrainPartition, PolicySnapshotSwapIsVersioned) {
  CellularTopology topo({.k = 4, .seed = 1});
  ShardBrain brain(topo, make_wire_policy(topo, 2, nullptr), {.shards = 2});
  const auto before = brain.policy_snapshot();
  const auto v0 = brain.policy_version();
  const auto v1 = brain.update_policy(make_wire_policy(topo, 3, nullptr));
  EXPECT_GT(v1, v0);
  const auto after = brain.policy_snapshot();
  EXPECT_NE(before.get(), after.get());  // old snapshot still alive, distinct
  EXPECT_EQ(before->clauses().size() + 1, after->clauses().size());
}

TEST(Runtime, ShardAffinityEachShardOneWorker) {
  CellularTopology topo({.k = 4, .seed = 1});
  ShardBrain brain(topo, make_wire_policy(topo, 4, nullptr), {.shards = 4});
  populate(brain, 64, 4, topo.num_base_stations());
  ControlPlaneRuntime runtime(brain, {.workers = 2});

  std::mutex mu;
  std::map<std::size_t, std::set<std::thread::id>> executed_on;
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      const UeId ue(i + 1);
      Request r;
      r.kind = RequestKind::kFetchClassifiers;
      r.ue = ue;
      r.bs = i % topo.num_base_stations();
      const auto shard = brain.shard_of(ue);
      r.done = [&, shard](Response&&) {
        std::lock_guard lock(mu);
        executed_on[shard].insert(std::this_thread::get_id());
      };
      ASSERT_TRUE(runtime.post(std::move(r)));
    }
  }
  runtime.drain();
  ASSERT_EQ(executed_on.size(), 4u);
  std::map<unsigned, std::thread::id> worker_thread;
  for (const auto& [shard, threads] : executed_on) {
    // Every request of a shard ran on exactly one worker thread...
    ASSERT_EQ(threads.size(), 1u) << "shard " << shard;
    // ...and shards mapping to the same worker share that thread.
    const auto w = runtime.worker_of(shard);
    const auto [it, inserted] = worker_thread.emplace(w, *threads.begin());
    if (!inserted) {
      EXPECT_EQ(it->second, *threads.begin());
    }
  }
  EXPECT_EQ(worker_thread.size(), 2u);
}

TEST(Runtime, DuplicateMissesCoalesceToOneInstall) {
  CellularTopology topo({.k = 4, .seed = 1});
  std::vector<ClauseId> clauses;
  ShardBrain brain(topo, make_wire_policy(topo, 2, &clauses), {.shards = 2});

  // Suspended pool: the whole burst is posted before anything executes, so
  // the coalescing decision is deterministic.
  ControlPlaneRuntime runtime(brain, {.workers = 1, .start_suspended = true});
  std::mutex mu;
  std::vector<PolicyTag> tags;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    Request r;
    r.kind = RequestKind::kPolicyPath;
    r.ue = UeId(7);  // same UE -> same shard; same (bs, clause) key
    r.bs = 3;
    r.clause = clauses[0];
    r.done = [&](Response&& resp) {
      ASSERT_TRUE(resp.ok) << resp.error;
      std::lock_guard lock(mu);
      tags.push_back(resp.tag);
    };
    ASSERT_TRUE(runtime.post(std::move(r)));
  }
  runtime.start();
  runtime.drain();

  ASSERT_EQ(tags.size(), static_cast<std::size_t>(kBurst));
  for (const auto t : tags) EXPECT_EQ(t, tags.front());  // one shared tag
  const auto m = runtime.metrics();
  EXPECT_EQ(m.path_requests, 1u);  // one install executed...
  EXPECT_EQ(m.coalesced_misses, static_cast<std::uint64_t>(kBurst - 1));
  EXPECT_EQ(m.latency_count(), static_cast<std::uint64_t>(kBurst));
}

TEST(Runtime, OverflowSubmissionsLoseNothingAndStillCoalesce) {
  // Saturate worker 0's SPSC ring from the pinned producer, then submit the
  // rest from a second thread so every one of those takes the bounded MPMC
  // overflow path (RuntimeOptions::overflow_capacity makes it exactly fit).
  // Every completion must still fire and duplicate path misses posted from
  // the foreign thread must coalesce without touching a queue at all.
  CellularTopology topo({.k = 4, .seed = 1});
  std::vector<ClauseId> clauses;
  // One shard: every request targets worker 0's queues.
  ShardBrain brain(topo, make_wire_policy(topo, 2, &clauses), {.shards = 1});
  populate(brain, 8, 2, topo.num_base_stations());

  ControlPlaneRuntime runtime(brain, {.workers = 1,
                                     .queue_capacity = 7,  // usable ring = 7
                                     .overflow_capacity = 8,
                                     .start_suspended = true});
  std::mutex mu;
  std::vector<PolicyTag> tags;
  std::atomic<int> classifier_done{0};
  const auto post_classifiers = [&](std::uint32_t i) {
    Request r;
    r.kind = RequestKind::kFetchClassifiers;
    r.ue = UeId(1 + i % 8);
    r.bs = i % topo.num_base_stations();
    r.done = [&](Response&& resp) {
      ASSERT_TRUE(resp.ok) << resp.error;
      classifier_done.fetch_add(1);
    };
    ASSERT_TRUE(runtime.post(std::move(r)));
  };
  const auto post_path = [&] {
    Request r;
    r.kind = RequestKind::kPolicyPath;
    r.ue = UeId(7);
    r.bs = 3;
    r.clause = clauses[0];
    r.done = [&](Response&& resp) {
      ASSERT_TRUE(resp.ok) << resp.error;
      std::lock_guard lock(mu);
      tags.push_back(resp.tag);
    };
    ASSERT_TRUE(runtime.post(std::move(r)));
  };

  // Pinned producer: one path miss + six classifier fetches fill the ring.
  post_path();
  for (std::uint32_t i = 0; i < 6; ++i) post_classifiers(i);
  // Foreign thread: four duplicate misses coalesce onto the in-flight
  // install (no enqueue), five classifier fetches land in the overflow.
  std::thread other([&] {
    for (int d = 0; d < 4; ++d) post_path();
    for (std::uint32_t i = 6; i < 11; ++i) post_classifiers(i);
  });
  other.join();  // everything admitted while the pool is still suspended

  runtime.start();
  runtime.drain();

  EXPECT_EQ(classifier_done.load(), 11);
  ASSERT_EQ(tags.size(), 5u);  // primary + 4 coalesced, none lost
  for (const auto t : tags) EXPECT_EQ(t, tags.front());
  const auto m = runtime.metrics();
  EXPECT_EQ(m.path_requests, 1u);
  EXPECT_EQ(m.coalesced_misses, 4u);
  EXPECT_EQ(m.latency_count(), 16u);  // 11 fetches + 5 path completions
}

// The full-ring regression at the pipeline level: with a one-slot ring
// and a slow completion, the dispatcher keeps finding the ring full, and
// every Request::done must still fire exactly once.
TEST(Runtime, FullRingFiresEveryCompletionExactlyOnce) {
  constexpr std::uint32_t kRequests = 1000;
  CellularTopology topo({.k = 4, .seed = 1});
  ShardBrain brain(topo, make_wire_policy(topo, 2, nullptr), {.shards = 1});
  populate(brain, 8, 2, topo.num_base_stations());
  ControlPlaneRuntime runtime(brain, {.workers = 1, .queue_capacity = 1});

  std::vector<std::atomic<int>> fired(kRequests);
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    Request r;
    r.kind = RequestKind::kFetchClassifiers;
    r.ue = UeId(1 + i % 8);
    r.bs = i % topo.num_base_stations();
    r.done = [&fired, i](Response&& resp) {
      EXPECT_TRUE(resp.ok) << resp.error;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      fired[i].fetch_add(1);
    };
    ASSERT_TRUE(runtime.post(std::move(r)));
  }
  runtime.drain();
  for (std::uint32_t i = 0; i < kRequests; ++i)
    EXPECT_EQ(fired[i].load(), 1) << "request " << i;
  EXPECT_EQ(runtime.metrics().latency_count(), kRequests);
}

TEST(Runtime, ErrorsPropagateAndAreCounted) {
  CellularTopology topo({.k = 4, .seed = 1});
  ShardBrain brain(topo, make_wire_policy(topo, 2, nullptr), {.shards = 2});
  ControlPlaneRuntime runtime(brain, {.workers = 1});
  // Unknown clause: the worker catches the controller's exception and the
  // synchronous wrapper rethrows it on the caller's thread.
  EXPECT_THROW(runtime.request_policy_path(UeId(1), 0, ClauseId(9999)),
               std::runtime_error);
  EXPECT_GE(runtime.metrics().errors, 1u);
}

// The headline determinism property: N workers reach the same final brain
// state as the single-threaded reference.  A shard's requests execute in
// posting order on its one worker; commits from different shards meet at
// the one core in an interleaving-dependent order, so the comparison uses
// the canonical (recompact-then-fingerprint) hash -- the same oracle the
// wire-parity test and the benches use.
TEST(Runtime, StressFourWorkersMatchSerialReference) {
  constexpr std::uint32_t kUes = 256;
  constexpr std::uint32_t kClauses = 8;
  constexpr std::uint64_t kRequests = 12'000;  // >= 4 threads x 10k+ total ops
  CellularTopology topo({.k = 4, .seed = 1});
  const auto num_bs = topo.num_base_stations();

  struct Op {
    bool path;
    UeId ue;
    std::uint32_t bs;
    ClauseId clause;
  };
  std::vector<ClauseId> clauses;
  (void)make_wire_policy(topo, kClauses, &clauses);
  std::vector<Op> ops;
  ops.reserve(kRequests);
  Rng rng = Rng::stream(0xD15EA5E, 0);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const auto idx = static_cast<std::uint32_t>(rng.next_below(kUes));
    ops.push_back(Op{rng.next_double() < 0.05, UeId(idx + 1), idx % num_bs,
                     clauses[idx % kClauses]});
  }

  const auto run = [&](unsigned workers) {
    ShardBrain brain(topo, make_wire_policy(topo, kClauses, nullptr),
                     {.shards = 4});
    populate(brain, kUes, kClauses, num_bs);
    if (workers == 0) {
      // Inline serial reference: no runtime, no threads.
      for (const auto& op : ops) {
        if (op.path)
          (void)brain.request_policy_path(op.ue, op.bs, op.clause);
        else
          (void)brain.fetch_classifiers(op.ue, op.bs);
      }
      return brain.canonical_fingerprint();
    }
    ControlPlaneRuntime runtime(brain, {.workers = workers});
    for (const auto& op : ops) {
      Request r;
      r.kind = op.path ? RequestKind::kPolicyPath
                       : RequestKind::kFetchClassifiers;
      r.ue = op.ue;
      r.bs = op.bs;
      r.clause = op.clause;
      EXPECT_TRUE(runtime.post(std::move(r)));
    }
    runtime.drain();
    EXPECT_EQ(runtime.metrics().errors, 0u);
    return brain.canonical_fingerprint();
  };

  const auto reference = run(0);
  EXPECT_EQ(run(1), reference);
  EXPECT_EQ(run(4), reference);
}

// --- end-to-end: the simulator through the pipeline --------------------------

TEST(Runtime, NetworkThroughPipelineMatchesInline) {
  const auto scenario = [](SoftCellNetwork& net) {
    std::vector<std::uint64_t> tags;
    for (std::uint32_t i = 0; i < 8; ++i) {
      SubscriberProfile p;
      p.plan = i % 2 ? BillingPlan::kGold : BillingPlan::kSilver;
      const UeId ue = net.add_subscriber(p);
      net.attach(ue, i % net.topology().num_base_stations());
      const auto flow = net.open_flow(ue, 0x08080808u, 80);
      const auto d = net.send_uplink(flow, TcpFlag::kSyn);
      EXPECT_TRUE(d.delivered) << d.drop_reason;
      tags.push_back(net.codec().tag_of(d.final_packet.key.src_port).value());
    }
    return tags;
  };

  SoftCellConfig inline_cfg{.topo = {.k = 4, .seed = 17}};
  SoftCellNetwork inline_net(inline_cfg, make_table1_policy());
  const auto inline_tags = scenario(inline_net);

  SoftCellConfig rt_cfg{.topo = {.k = 4, .seed = 17}};
  rt_cfg.runtime_workers = 2;
  SoftCellNetwork rt_net(rt_cfg, make_table1_policy());
  const auto rt_tags = scenario(rt_net);

  // Same policy tags on the wire, same final controller state.
  EXPECT_EQ(inline_tags, rt_tags);
  EXPECT_EQ(inline_net.controller().state_fingerprint(),
            rt_net.controller().state_fingerprint());
  // The pipeline really carried the control-plane traffic.
  ASSERT_NE(rt_net.runtime(), nullptr);
  EXPECT_EQ(inline_net.runtime(), nullptr);
  EXPECT_GT(rt_net.runtime()->metrics().path_requests, 0u);
}

}  // namespace
}  // namespace softcell
