// Run-to-completion fetches: the ordering rules of
// RuntimeDispatcher's inline path (ControlPlaneRuntime::run_inline_if_idle).
//
// A classifier fetch offered inline runs on the caller's thread only while
// the worker owning its shard has no job queued or running; anything else
// is posted.  These tests pin the consequences: a fetch queued behind a
// path install for the same UE is posted and reads that install's tag
// (per-shard FIFO, read-your-writes), an idle worker's fetch completes
// before dispatch() returns, the two-argument dispatch() never runs
// inline, and over the wire only the last frame of a read burst is
// offered.
//
// Labelled `net` and `concurrency` so the TSan stage runs them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/dispatch.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#include "runtime/runtime.hpp"
#include "workload/wire_workload.hpp"

namespace softcell {
namespace {

using namespace std::chrono_literals;

// A small provisioned brain: UE u = idx + 1 lives at bs (idx / 64) % B and
// subscribes to clause idx % clauses (provision_wire_ues).
struct Fixture {
  WireWorkloadConfig config;
  CellularTopology topo;
  std::vector<ClauseId> clauses;
  ShardBrain brain;

  Fixture()
      : config(),
        topo(config.make_topology()),
        brain(topo, make_wire_policy(topo, config.num_clauses, &clauses),
              {.shards = 4}) {
    provision_wire_ues(brain, config, topo.num_base_stations());
  }

  [[nodiscard]] std::uint32_t bs_of(std::uint32_t ue) const {
    return ((ue - 1) / config.ues_per_conn) % topo.num_base_stations();
  }
  [[nodiscard]] ClauseId clause_of(std::uint32_t ue) const {
    return clauses[(ue - 1) % clauses.size()];
  }
  [[nodiscard]] std::uint64_t digest(std::uint32_t ue) const {
    return net::classifier_digest(brain.fetch_classifiers(UeId(ue), bs_of(ue)));
  }
};

ofp::PacketInMsg fetch_msg(std::uint32_t xid, std::uint32_t ue,
                           std::uint32_t bs) {
  ofp::PacketInMsg msg;
  msg.xid = xid;
  msg.kind = ofp::PacketInMsg::Kind::kFetchClassifiers;
  msg.ue = UeId(ue);
  msg.bs = bs;
  return msg;
}

ofp::PacketInMsg path_msg(std::uint32_t xid, std::uint32_t ue,
                          std::uint32_t bs, ClauseId clause) {
  ofp::PacketInMsg msg = fetch_msg(xid, ue, bs);
  msg.kind = ofp::PacketInMsg::Kind::kPolicyPath;
  msg.clause = clause;
  return msg;
}

// One completion's outcome and the thread it fired on.
struct Captured {
  std::atomic<bool> fired{false};
  std::thread::id thread;
  ofp::PacketInReply reply;

  [[nodiscard]] auto sink() {
    return [this](ofp::PacketInReply&& r) {
      reply = std::move(r);
      thread = std::this_thread::get_id();
      fired.store(true, std::memory_order_release);
    };
  }
};

// (a) A path request for UE u is queued on a suspended runtime, so u's
// worker is busy: the later fetch for u, although offered inline, is
// posted behind it, and once the pool runs it reads the tag the install
// just wrote.
TEST(InlineDispatch, FetchBehindQueuedPathIsPostedAndReadsItsTag) {
  Fixture f;
  ControlPlaneRuntime runtime(f.brain, {.workers = 2, .start_suspended = true});
  net::RuntimeDispatcher dispatcher(runtime, f.brain);

  constexpr std::uint32_t kUe = 7;
  const std::uint32_t bs = f.bs_of(kUe);
  const ClauseId clause = f.clause_of(kUe);
  const std::uint64_t before = f.digest(kUe);

  Captured path;
  Captured fetch;
  dispatcher.dispatch(path_msg(1, kUe, bs, clause), path.sink(), true);
  dispatcher.dispatch(fetch_msg(2, kUe, bs), fetch.sink(), true);
  EXPECT_FALSE(path.fired.load());
  EXPECT_FALSE(fetch.fired.load()) << "fetch ran ahead of the queued install";
  EXPECT_EQ(runtime.metrics().inline_fetches, 0u);

  runtime.start();
  runtime.drain();
  ASSERT_TRUE(path.fired.load(std::memory_order_acquire));
  ASSERT_TRUE(fetch.fired.load(std::memory_order_acquire));
  ASSERT_TRUE(path.reply.ok);
  ASSERT_TRUE(fetch.reply.ok);

  // Read-your-writes: the fetch's classifiers carry the installed tag.
  const auto classifiers = f.brain.fetch_classifiers(UeId(kUe), bs);
  const auto it =
      std::find_if(classifiers.begin(), classifiers.end(),
                   [&](const PacketClassifier& c) { return c.clause == clause; });
  ASSERT_NE(it, classifiers.end());
  ASSERT_TRUE(it->tag.has_value());
  EXPECT_EQ(*it->tag, path.reply.tag);
  EXPECT_EQ(fetch.reply.digest, net::classifier_digest(classifiers));
  EXPECT_NE(fetch.reply.digest, before);
}

// (b) With u's worker idle, a fetch offered inline completes on the
// caller's thread before dispatch() returns -- even on a suspended pool.
// The two-argument form, and a path request offered inline, are posted.
TEST(InlineDispatch, IdleWorkerFetchCompletesOnCallerThread) {
  Fixture f;
  ControlPlaneRuntime runtime(f.brain, {.workers = 2, .start_suspended = true});
  net::RuntimeDispatcher dispatcher(runtime, f.brain);

  constexpr std::uint32_t kUe = 11;
  const std::uint32_t bs = f.bs_of(kUe);
  const std::uint64_t expected = f.digest(kUe);

  Captured inline_fetch;
  dispatcher.dispatch(fetch_msg(1, kUe, bs), inline_fetch.sink(), true);
  ASSERT_TRUE(inline_fetch.fired.load());
  EXPECT_EQ(inline_fetch.thread, std::this_thread::get_id());
  EXPECT_TRUE(inline_fetch.reply.ok);
  EXPECT_EQ(inline_fetch.reply.xid, 1u);
  EXPECT_EQ(inline_fetch.reply.digest, expected);
  EXPECT_EQ(runtime.metrics().inline_fetches, 1u);

  Captured posted_fetch;
  Captured posted_path;
  dispatcher.dispatch(fetch_msg(2, kUe, bs), posted_fetch.sink());
  dispatcher.dispatch(path_msg(3, 12, f.bs_of(12), f.clause_of(12)),
                      posted_path.sink(), true);
  EXPECT_FALSE(posted_fetch.fired.load());
  EXPECT_FALSE(posted_path.fired.load());

  runtime.start();
  runtime.drain();
  ASSERT_TRUE(posted_fetch.fired.load(std::memory_order_acquire));
  ASSERT_TRUE(posted_path.fired.load(std::memory_order_acquire));
  EXPECT_NE(posted_fetch.thread, std::this_thread::get_id());
  EXPECT_EQ(posted_fetch.reply.digest, expected);
  EXPECT_EQ(runtime.metrics().inline_fetches, 1u);
  EXPECT_EQ(runtime.metrics().classifier_fetches, 3u);  // 2 + f.digest's
}

// (c) N fetch frames in one send() arrive as one read burst: every frame
// is answered with the reference digest, and only the burst's last frame
// was offered inline, so at most one fetch ran on the loop thread.
TEST(InlineDispatch, WireBurstInlinesAtMostItsLastFetch) {
  Fixture f;
  constexpr std::uint32_t kFrames = 32;
  std::vector<std::uint64_t> expected;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const std::uint32_t ue = 1 + i * 5;
    expected.push_back(f.digest(ue));
    ofp::encode_packet_in_into(burst, fetch_msg(i, ue, f.bs_of(ue)));
  }

  ControlPlaneRuntime runtime(f.brain, {.workers = 2});
  net::RuntimeDispatcher dispatcher(runtime, f.brain);
  net::EventLoop loop;
  ASSERT_TRUE(loop.ok());
  net::ControllerServer server(loop, dispatcher);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread loop_thread([&] { loop.run(); });

  net::WireConn conn;
  ASSERT_TRUE(conn.connect(server.port(), &err)) << err;
  ASSERT_TRUE(conn.send_bytes(burst));
  std::vector<bool> seen(kFrames, false);
  for (std::uint32_t n = 0; n < kFrames; ++n) {
    const auto frame = conn.recv_frame(5000ms);
    ASSERT_TRUE(frame) << "after " << n << " replies";
    const auto reply = ofp::decode_packet_in_reply(*frame);
    ASSERT_TRUE(reply);
    ASSERT_LT(reply->xid, kFrames);
    EXPECT_FALSE(seen[reply->xid]) << "duplicate reply " << reply->xid;
    seen[reply->xid] = true;
    EXPECT_TRUE(reply->ok);
    EXPECT_EQ(reply->digest, expected[reply->xid]) << "xid " << reply->xid;
  }
  EXPECT_LE(runtime.metrics().inline_fetches, 1u);

  server.request_stop();
  loop_thread.join();
}

}  // namespace
}  // namespace softcell
