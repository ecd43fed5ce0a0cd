// Concurrency tests for the control-plane runtime (src/runtime/).
//
// Labelled `concurrency` in CMake so the suite can be re-run under
// -DSOFTCELL_SANITIZE=thread (`ctest -L concurrency`): the queue, pool,
// snapshot and pipeline tests all exercise real cross-thread traffic.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
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

  // pop_all hands over the whole backlog, still in FIFO order.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(10 + i));
  std::deque<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{10, 11, 12, 13}));
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.try_push(99));  // the batch freed every slot
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

  // The same with a pop_all consumer: it blocks while the queue is empty,
  // and each batch it takes frees the slots the blocked producer waits on.
  constexpr int kItems = 1000;
  std::atomic<bool> took_batch{false};
  got.clear();
  std::thread batcher([&] {
    std::deque<int> batch;
    while (got.size() < kItems && q.pop_all(batch)) {
      took_batch.store(true);
      got.insert(got.end(), batch.begin(), batch.end());
      batch.clear();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(took_batch.load());  // nothing queued yet: still blocked
  for (int i = 0; i < kItems; ++i) EXPECT_TRUE(q.push(i));
  batcher.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got[i], i);
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

  // pop_all: the same contract, one batch at a time.
  BoundedMpmcQueue<int> r(8);
  EXPECT_TRUE(r.push(1));
  EXPECT_TRUE(r.push(2));
  r.close();
  EXPECT_FALSE(r.push(3));
  std::deque<int> batch;
  ASSERT_TRUE(r.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{1, 2}));
  batch.clear();
  EXPECT_FALSE(r.pop_all(batch));  // closed and drained: no block
  EXPECT_TRUE(batch.empty());
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

TEST(ThreadPool, SingleProducerFifoWithBackpressure) {
  // A tiny queue keeps the producer blocked on a full queue; order must
  // still hold (the determinism guarantee the runtime builds on).
  std::vector<int> seen;
  ThreadPool<int> pool({.workers = 1, .queue_capacity = 8},
                       [&](unsigned, int& v) { seen.push_back(v); });
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(pool.submit_to(0, i));
  pool.stop();  // runs every accepted task, then joins
  ASSERT_EQ(seen.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(seen[i], i);
}

// Full-queue regression: a producer that finds its worker's queue full
// must still hand over the task intact -- an earlier ring-based pool moved
// it away on a failed push, so the retry pushed an empty husk whose
// completion never fired.  A one-slot queue and a slow handler make nearly
// every submission wait for space.
TEST(ThreadPool, FullRingRetryKeepsEveryCompletion) {
  constexpr int kTasks = 2000;
  std::atomic<int> ran{0};
  std::atomic<int> completions{0};
  {
    ThreadPool<std::function<void()>> pool(
        {.workers = 1, .queue_capacity = 1},
        [&](unsigned, std::function<void()>& task) {
          ran.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          if (task) task();
        });
    for (int i = 0; i < kTasks; ++i)
      ASSERT_TRUE(pool.submit_to(0, [&] { completions.fetch_add(1); }));
    pool.stop();  // runs every accepted task, then joins
  }
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(completions.load(), kTasks);
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

TEST(ThreadPool, TwoProducersOneWorkerRunEveryTaskOnceInProducerOrder) {
  // Two threads submit to the same worker at once through a small queue,
  // so both keep meeting a full queue.  Every task runs exactly once, and
  // each producer's tasks run in that producer's submission order.
  constexpr int kPerProducer = 5000;
  std::vector<int> seen;  // only the one worker thread appends
  {
    ThreadPool<int> pool({.workers = 1, .queue_capacity = 16},
                         [&](unsigned, int& v) { seen.push_back(v); });
    const auto produce = [&](int base) {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(pool.submit_to(0, base + i));
    };
    std::thread a(produce, 0);
    std::thread b(produce, 1'000'000);
    a.join();
    b.join();
    pool.stop();  // runs every accepted task, then joins
  }
  ASSERT_EQ(seen.size(), 2u * kPerProducer);
  int next_a = 0, next_b = 1'000'000;
  for (const int v : seen) {
    if (v < 1'000'000) {
      ASSERT_EQ(v, next_a++);
    } else {
      ASSERT_EQ(v, next_b++);
    }
  }
  EXPECT_EQ(next_a, kPerProducer);
  EXPECT_EQ(next_b, 1'000'000 + kPerProducer);
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

TEST(Runtime, SecondProducerLosesNothingAndStillCoalesces) {
  // Two threads post into the same suspended worker.  Every completion
  // must fire, and duplicate path misses posted from the second thread
  // must coalesce onto the install the first thread queued, without
  // touching the queue at all.
  CellularTopology topo({.k = 4, .seed = 1});
  std::vector<ClauseId> clauses;
  // One shard: every request targets worker 0's queue.
  ShardBrain brain(topo, make_wire_policy(topo, 2, &clauses), {.shards = 1});
  populate(brain, 8, 2, topo.num_base_stations());

  // Room for exactly the 12 queued requests (1 install + 11 fetches): the
  // 4 coalesced duplicates never take a slot, or the suspended pool would
  // block the second producer.
  ControlPlaneRuntime runtime(brain, {.workers = 1,
                                     .queue_capacity = 12,
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

  // First producer: one path miss + six classifier fetches.
  post_path();
  for (std::uint32_t i = 0; i < 6; ++i) post_classifiers(i);
  // Second producer: four duplicate misses coalesce onto the in-flight
  // install (no enqueue), five classifier fetches join the queue.
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

// The full-queue regression at the pipeline level: with a one-slot queue
// and a slow completion, the dispatcher keeps finding the queue full, and
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
