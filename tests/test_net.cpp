// softcell::net -- the TCP/epoll serving front end, exercised over real
// loopback sockets.
//
// Directed coverage for the stream-layer hazards a wire protocol must
// survive: partial reads (frames cut at arbitrary byte boundaries by the
// kernel), short writes (kernel send buffer full mid-reply), connections
// dropped with requests still in flight, and slow clients that stop
// reading while replies accumulate (bounded outbound buffer, drop and
// count, connection survives).  Plus the acceptance property: a wire run
// of the deterministic cbench workload lands on the exact controller
// fingerprint the in-process reference run produces -- against an
// in-process server and against softcell-serverd as a separate process.
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/dispatch.hpp"
#include "net/event_loop.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/registry.hpp"
#include "workload/wire_workload.hpp"

namespace softcell {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool poll_until(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// Replies inline from the loop thread: xid/kind echoed, digest derived
// from the request so the client can verify payload integrity end to end.
class EchoDispatcher final : public net::Dispatcher {
 public:
  void dispatch(const ofp::PacketInMsg& msg,
                std::function<void(ofp::PacketInReply&&)> done) override {
    ofp::PacketInReply reply;
    reply.xid = msg.xid;
    reply.kind = msg.kind;
    reply.digest =
        (static_cast<std::uint64_t>(msg.ue.value()) << 32) | msg.bs;
    dispatched.fetch_add(1, std::memory_order_relaxed);
    done(std::move(reply));
  }
  [[nodiscard]] std::uint64_t fingerprint() override { return 0xF00D; }
  void drain() override {}

  std::atomic<std::uint64_t> dispatched{0};
};

// Holds every completion until released, so tests control exactly when
// replies race connection teardown.
class HoldDispatcher final : public net::Dispatcher {
 public:
  void dispatch(const ofp::PacketInMsg& msg,
                std::function<void(ofp::PacketInReply&&)> done) override {
    ofp::PacketInReply reply;
    reply.xid = msg.xid;
    reply.kind = msg.kind;
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_.emplace_back(std::move(reply), std::move(done));
      ++total_;
    }
    cv_.notify_all();
  }
  [[nodiscard]] std::uint64_t fingerprint() override { return 0; }
  void drain() override { release_all(); }

  bool wait_for_dispatched(std::size_t n,
                           std::chrono::milliseconds timeout = 5000ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return total_ >= n; });
  }

  void release_all() {
    std::vector<std::pair<ofp::PacketInReply,
                          std::function<void(ofp::PacketInReply&&)>>>
        take;
    {
      std::lock_guard<std::mutex> lock(mu_);
      take.swap(held_);
    }
    for (auto& [reply, done] : take) done(std::move(reply));
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<ofp::PacketInReply,
                        std::function<void(ofp::PacketInReply&&)>>>
      held_;
  std::size_t total_ = 0;
};

// Loop + server + loop thread, torn down in order.
class ServerHarness {
 public:
  explicit ServerHarness(net::Dispatcher& dispatcher,
                         net::ControllerServer::Options options =
                             net::ControllerServer::Options())
      : server_(loop_, dispatcher, options) {
    std::string err;
    ok_ = loop_.ok() && server_.start(&err);
    if (ok_) thread_ = std::thread([this] { loop_.run(); });
  }
  ~ServerHarness() {
    if (!ok_) return;
    server_.request_stop();
    thread_.join();
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] net::NetStats& stats() { return server_.stats(); }
  [[nodiscard]] net::ControllerServer& server() { return server_; }

 private:
  net::EventLoop loop_;
  net::ControllerServer server_;
  std::thread thread_;
  bool ok_ = false;
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

TEST(NetEventLoop, PostRunsTasksOnLoopThread) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread t([&] { loop.run(); });
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop_thread{false};
  loop.post([&] {
    on_loop_thread.store(loop.in_loop_thread());
    ran.store(true);
  });
  EXPECT_TRUE(poll_until([&] { return ran.load(); }));
  EXPECT_TRUE(on_loop_thread.load());
  loop.stop();
  t.join();
}

// A post() from the loop thread writes no eventfd: the loop must find the
// task by polling with a zero timeout while tasks are queued.  Nothing
// else wakes the loop here -- no fd activity, no other poster -- so the
// second task only runs if that poll works.
TEST(NetEventLoop, TaskPostedFromLoopThreadRunsWithoutWakeup) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread t([&] { loop.run(); });
  std::atomic<bool> ran{false};
  loop.post([&] { loop.post([&] { ran.store(true); }); });
  EXPECT_TRUE(poll_until([&] { return ran.load(); }));
  loop.stop();
  t.join();
}

// The kernel may deliver a frame in any number of fragments; the server
// must reassemble no matter where the cuts land -- including one byte at
// a time.
TEST(NetServer, PartialReadsReassemble) {
  EchoDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;

  // One frame, trickled a byte at a time.
  const auto frame = ofp::encode_packet_in(fetch_msg(7, 1234, 5));
  for (const std::uint8_t byte : frame)
    ASSERT_TRUE(conn.send_bytes(std::span(&byte, 1)));
  auto reply_frame = conn.recv_frame(5000ms);
  ASSERT_TRUE(reply_frame);
  auto reply = ofp::decode_packet_in_reply(*reply_frame);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->xid, 7u);
  EXPECT_EQ(reply->digest, (std::uint64_t{1234} << 32) | 5u);

  // Three frames batched into one buffer, cut mid-frame: replies come
  // back complete and in order.
  std::vector<std::uint8_t> batch;
  for (std::uint32_t i = 0; i < 3; ++i)
    ofp::encode_packet_in_into(batch, fetch_msg(100 + i, 10 + i, i));
  const std::size_t cut = ofp::kPacketInSize + 3;  // mid second frame
  ASSERT_TRUE(conn.send_bytes(std::span(batch).first(cut)));
  ASSERT_TRUE(conn.send_bytes(std::span(batch).subspan(cut)));
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto f = conn.recv_frame(5000ms);
    ASSERT_TRUE(f);
    auto r = ofp::decode_packet_in_reply(*f);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->xid, 100 + i);
    EXPECT_EQ(r->digest, (std::uint64_t{10 + i} << 32) | i);
  }
  EXPECT_EQ(h.stats().decode_errors.load(), 0u);
}

// Queue far more reply bytes than the kernel socket buffers hold while
// the client is not reading: flush hits EAGAIN (short write), the loop
// arms kWritable, and every reply still arrives once the client reads.
TEST(NetServer, ShortWritesRecoverWithoutLoss) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  // Pin kernel-side buffering far below the reply volume so flush_conn
  // must hit EAGAIN (the kernel's sndbuf autotuning would otherwise
  // absorb hundreds of KiB on loopback).
  options.sndbuf_bytes = 8192;
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);

  constexpr std::uint32_t kRequests = 4000;  // 96 KiB of replies
  std::vector<std::uint8_t> batch;
  batch.reserve(kRequests * ofp::kPacketInSize);
  for (std::uint32_t i = 0; i < kRequests; ++i)
    ofp::encode_packet_in_into(batch, fetch_msg(i, i, i % 16));
  ASSERT_TRUE(conn.send_bytes(batch));

  // Wait until the server has decided every reply (encoded, none dropped:
  // the backlog stays far below the 1 MiB default cap) before reading.
  ASSERT_TRUE(poll_until(
      [&] { return h.stats().replies_out.load() == kRequests; }));
  EXPECT_EQ(h.stats().backpressure_drops.load(), 0u);

  for (std::uint32_t i = 0; i < kRequests; ++i) {
    auto f = conn.recv_frame(5000ms);
    ASSERT_TRUE(f) << "reply " << i;
    auto r = ofp::decode_packet_in_reply(*f);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->xid, i);  // in order, none lost or duplicated
  }
  EXPECT_GE(h.stats().short_writes.load(), 1u);
  EXPECT_EQ(h.stats().packet_ins.load(), kRequests);
}

// Connection drops while its request is still in the pipeline: the
// completion finds the connection gone and is counted, never crashes,
// never lands on a reused connection.
TEST(NetServer, MidRequestConnectionDrop) {
  HoldDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
  ASSERT_TRUE(conn.send_packet_in(fetch_msg(1, 42, 0)));
  ASSERT_TRUE(dispatcher.wait_for_dispatched(1));

  // A second frame cut off mid-stream plus the close: the half frame must
  // not count as a decode error (the stream just ended).
  const auto partial = ofp::encode_packet_in(fetch_msg(2, 43, 0));
  ASSERT_TRUE(conn.send_bytes(std::span(partial).first(10)));
  conn.close();
  ASSERT_TRUE(poll_until([&] { return h.stats().closes.load() == 1; }));

  dispatcher.release_all();
  ASSERT_TRUE(
      poll_until([&] { return h.stats().dropped_replies.load() == 1; }));
  EXPECT_EQ(h.stats().decode_errors.load(), 0u);
  EXPECT_EQ(h.stats().conns_open.load(), 0);
}

// Broken framing (a length-prefixed stream cannot resync) drops the
// connection; an intact frame of a type the serving plane does not speak
// is counted and skipped with the connection kept.
TEST(NetServer, BadFramesHandledPerSeverity) {
  EchoDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  {
    net::WireConn conn;
    std::string err;
    ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
    std::vector<std::uint8_t> garbage(ofp::kHeaderSize, 0);
    garbage[0] = ofp::MsgHeader::kVersion + 1;  // wrong version
    ASSERT_TRUE(conn.send_bytes(garbage));
    EXPECT_FALSE(conn.recv_frame(2000ms));  // server closed on us
    ASSERT_TRUE(poll_until([&] { return h.stats().closes.load() == 1; }));
    EXPECT_EQ(h.stats().decode_errors.load(), 1u);
  }
  {
    net::WireConn conn;
    std::string err;
    ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
    const auto stray = ofp::encode_control(ofp::MsgType::kBarrierRequest, 9);
    ASSERT_TRUE(conn.send_bytes(stray));
    ASSERT_TRUE(
        poll_until([&] { return h.stats().decode_errors.load() == 2; }));
    EXPECT_TRUE(conn.echo(10));  // connection survived the stray frame
    EXPECT_EQ(h.stats().closes.load(), 1u);
  }
}

// A slow client: its outbound buffer is pinned at the cap by an unread
// echo backlog, so packet-in replies are dropped and counted while the
// connection stays open and drains at the client's pace.
TEST(NetServer, SlowClientBackpressureDropsAndSurvives) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  options.max_outbound_bytes = 64;
  options.sndbuf_bytes = 8192;  // pin kernel buffering; see short-write test
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
  // Pin the client's receive buffer too, so autotuning cannot grow the
  // kernel's share of the backlog on hosts with large tcp_rmem defaults.
  const int rcvbuf = 64 * 1024;
  ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);

  // Fill the kernel buffers and the server-side outbound buffer with echo
  // replies (echo bypasses the cap: it is the probe).  The two kernel
  // buffers absorb up to ~170 KiB of replies on loopback, so the backlog
  // is 1 MiB: far past that, yet under the 4 MiB control_outbound_limit
  // that would close the connection.
  constexpr std::uint32_t kEchoes = 128 * 1024;
  static_assert(kEchoes * ofp::kHeaderSize <
                net::ControllerServer::Options{}.control_outbound_limit);
  std::vector<std::uint8_t> echoes;
  echoes.reserve(kEchoes * ofp::kHeaderSize);
  for (std::uint32_t i = 0; i < kEchoes; ++i) {
    const auto e = ofp::encode_control(ofp::MsgType::kEchoRequest, i);
    echoes.insert(echoes.end(), e.begin(), e.end());
  }
  ASSERT_TRUE(conn.send_bytes(echoes));
  // Precondition, from the server's own counters: once every echo is
  // decoded, the replies queued but not yet sent keep the outbound buffer
  // at or above the cap.
  ASSERT_TRUE(poll_until([&] { return h.stats().frames_in.load() == kEchoes; },
                         30s));
  const std::uint64_t unsent =
      std::uint64_t{kEchoes} * ofp::kHeaderSize - h.stats().bytes_out.load();
  ASSERT_GE(unsent, options.max_outbound_bytes)
      << "bytes_out=" << h.stats().bytes_out.load();

  // Every packet-in reply now lands on a buffer at the cap: all dropped.
  constexpr std::uint32_t kDropped = 50;
  std::vector<std::uint8_t> batch;
  for (std::uint32_t i = 0; i < kDropped; ++i)
    ofp::encode_packet_in_into(batch, fetch_msg(i, i, 0));
  ASSERT_TRUE(conn.send_bytes(batch));
  ASSERT_TRUE(poll_until(
      [&] { return h.stats().backpressure_drops.load() == kDropped; }));
  EXPECT_EQ(h.stats().replies_out.load(), 0u);

  // The connection is intact: drain the echo backlog, then round-trip.
  std::uint32_t echo_replies = 0;
  while (echo_replies < kEchoes) {
    auto f = conn.recv_frame(5000ms);
    ASSERT_TRUE(f) << "after " << echo_replies << " echo replies";
    const auto head = ofp::peek_header(*f);
    ASSERT_TRUE(head);
    ASSERT_EQ(head->type, static_cast<std::uint8_t>(ofp::MsgType::kEchoReply));
    ++echo_replies;
  }
  EXPECT_TRUE(conn.echo(999999));
  EXPECT_EQ(h.stats().closes.load(), 0u);
}

// Control probes bypass the drop-and-count cap but not the hard one: a
// client that floods echo requests while never reading is closed and
// counted once its outbound buffer passes control_outbound_limit,
// instead of growing it without bound.
TEST(NetServer, EchoFloodPastHardCapCloses) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  options.max_outbound_bytes = 2048;
  options.control_outbound_limit = 4096;
  options.sndbuf_bytes = 8192;  // pin kernel buffering; see short-write test
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);

  // ~256 KiB of echo replies against ~16 KiB of pinned kernel capacity
  // and a 4 KiB hard cap: the server must close, not buffer the rest.
  constexpr std::uint32_t kEchoes = 16000;
  std::vector<std::uint8_t> echoes;
  echoes.reserve(kEchoes * ofp::kHeaderSize);
  for (std::uint32_t i = 0; i < kEchoes; ++i) {
    const auto e = ofp::encode_control(ofp::MsgType::kEchoRequest, i);
    echoes.insert(echoes.end(), e.begin(), e.end());
  }
  conn.send_bytes(echoes);  // may fail mid-send once the server closes
  ASSERT_TRUE(
      poll_until([&] { return h.stats().overflow_closes.load() >= 1; }));
  ASSERT_TRUE(poll_until([&] { return h.stats().closes.load() == 1; }));
  EXPECT_EQ(h.stats().conns_open.load(), 0);

  // The server itself is intact: a fresh connection round-trips.
  net::WireConn probe;
  ASSERT_TRUE(probe.connect(h.port(), &err)) << err;
  EXPECT_TRUE(probe.echo(1));
}

// Hard resets racing in-flight echo replies: when a flush inside the
// frame loop hits ECONNRESET, the connection must be closed exactly once
// and never touched again (the use-after-free regression; ASan guards
// the Conn lifetime on every iteration).
TEST(NetServer, AbortiveResetDuringEchoBurstSurvives) {
  EchoDispatcher dispatcher;
  net::ControllerServer::Options options;
  options.sndbuf_bytes = 8192;
  ServerHarness h(dispatcher, options);
  ASSERT_TRUE(h.ok());

  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    net::WireConn conn;
    std::string err;
    ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
    const linger lg{1, 0};  // close() sends RST, not FIN
    ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_LINGER, &lg,
                           sizeof(lg)),
              0);
    std::vector<std::uint8_t> burst;
    for (std::uint32_t i = 0; i < 64; ++i) {
      const auto e = ofp::encode_control(ofp::MsgType::kEchoRequest, i);
      burst.insert(burst.end(), e.begin(), e.end());
    }
    ASSERT_TRUE(conn.send_bytes(burst));
    conn.close();  // RST races the server's per-frame reply flushes
  }
  ASSERT_TRUE(poll_until([&] {
    return h.stats().closes.load() == kRounds &&
           h.stats().conns_open.load() == 0;
  }));
  net::WireConn probe;
  std::string err;
  ASSERT_TRUE(probe.connect(h.port(), &err)) << err;
  EXPECT_TRUE(probe.echo(1));
}

// The acceptance property: the same deterministic workload over loopback
// TCP and in-process lands on the same canonical controller fingerprint,
// and after the run the server drains gracefully and stops accepting.
TEST(NetServer, WireRunMatchesInProcessFingerprintThenDrains) {
  WireWorkloadConfig config;
  config.connections = 2;
  config.requests_per_conn = 200;
  config.shards = 4;
  const CellularTopology topo = config.make_topology();
  const std::uint64_t reference = run_wire_workload_inprocess(topo, config);

  std::vector<ClauseId> clauses;
  ShardBrain brain(topo, make_wire_policy(topo, config.num_clauses, &clauses),
                   {.shards = config.shards});
  provision_wire_ues(brain, config, topo.num_base_stations());
  ControlPlaneRuntime runtime(
      brain, {.workers = config.workers, .queue_capacity = 8192});
  net::RuntimeDispatcher dispatcher(runtime, brain);
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  const WireLoadResult result = run_wire_load(
      h.port(), topo.num_base_stations(), clauses, config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.received,
            static_cast<std::uint64_t>(config.connections) *
                config.requests_per_conn);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.server.fingerprint, reference);
  EXPECT_EQ(result.server.drops, 0u);

  // Graceful drain: everything flushes, and new connections are no longer
  // accepted (the listener is out of the loop; echo gets no answer).
  EXPECT_TRUE(h.server().drain(5000ms));
  const std::uint64_t accepts = h.stats().accepts.load();
  net::WireConn late;
  std::string err;
  if (late.connect(h.port(), &err)) {  // backlog may still take the SYN
    EXPECT_FALSE(late.echo(1, 300ms));
  }
  EXPECT_EQ(h.stats().accepts.load(), accepts);
}

// The same parity with fetches served on the loop thread: a mixed
// fetch/path wire run at 1, 2 and 4 workers, where inline fetches race
// the workers' installs and the stats probe's recompaction.  Every run
// must land on the in-process reference fingerprint (and stay clean
// under TSan: the `net` label is in the sanitizer stages).
TEST(NetServer, MixedWireRunMatchesInProcessAtEveryWorkerCount) {
  WireWorkloadConfig config;
  config.connections = 3;
  config.requests_per_conn = 300;
  config.shards = 4;
  config.path_request_ratio = 0.2;
  const CellularTopology topo = config.make_topology();
  const std::uint64_t reference = run_wire_workload_inprocess(topo, config);

  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    std::vector<ClauseId> clauses;
    ShardBrain brain(topo,
                     make_wire_policy(topo, config.num_clauses, &clauses),
                     {.shards = config.shards});
    provision_wire_ues(brain, config, topo.num_base_stations());
    ControlPlaneRuntime runtime(brain,
                                {.workers = workers, .queue_capacity = 8192});
    net::RuntimeDispatcher dispatcher(runtime, brain);
    ServerHarness h(dispatcher);
    ASSERT_TRUE(h.ok());

    const WireLoadResult result = run_wire_load(
        h.port(), topo.num_base_stations(), clauses, config);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.received,
              static_cast<std::uint64_t>(config.connections) *
                  config.requests_per_conn);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.server.fingerprint, reference);
    EXPECT_TRUE(h.server().drain(5000ms));
  }
}

// softcell-serverd as a child process.  The destructor SIGKILLs and reaps
// it unless stop() already reaped it, so no failure path of a test leaves
// the daemon running.
class ServerdProcess {
 public:
  explicit ServerdProcess(const std::string& port_file) {
    std::vector<std::string> args{SOFTCELL_SERVERD_PATH, "--port", "0",
                                  "--port-file", port_file};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, argv[0], nullptr, nullptr, argv.data(),
                    environ) != 0)
      pid_ = -1;
  }
  ~ServerdProcess() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  ServerdProcess(const ServerdProcess&) = delete;
  ServerdProcess& operator=(const ServerdProcess&) = delete;

  [[nodiscard]] bool running() const { return pid_ > 0; }

  // Polls until the port file holds a complete line (serverd writes it
  // once it listens); nullopt if serverd exits first or time runs out.
  std::optional<std::uint16_t> wait_for_port(const std::string& port_file,
                                             std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline && !reaped()) {
      std::ifstream in(port_file);
      const std::string text{std::istreambuf_iterator<char>(in), {}};
      if (!text.empty() && text.back() == '\n')
        return static_cast<std::uint16_t>(std::stoul(text));
      std::this_thread::sleep_for(10ms);
    }
    return std::nullopt;
  }

  // SIGTERM, then waits for the exit; returns the waitpid status, or
  // nullopt if serverd is still running at the deadline.
  std::optional<int> stop(std::chrono::milliseconds timeout) {
    if (pid_ <= 0) return status_;
    kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!reaped()) {
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      std::this_thread::sleep_for(10ms);
    }
    return status_;
  }

 private:
  bool reaped() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) != pid_) return false;
    pid_ = -1;
    status_ = status;
    return true;
  }

  pid_t pid_ = -1;
  std::optional<int> status_;
};

// A fresh directory under the test temp dir, removed with its contents.
class ScratchDir {
 public:
  ScratchDir() {
    std::string templ = testing::TempDir() + "softcell_serverd_XXXXXX";
    if (mkdtemp(templ.data()) != nullptr) path_ = templ;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The parity property across a real process boundary: softcell-serverd,
// started with its default provisioning (the WireWorkloadConfig defaults),
// serves the workload over loopback TCP and lands on the in-process
// reference fingerprint; SIGTERM then drains it to exit status 0.
TEST(Serverd, SeparateProcessMatchesInProcessThenExitsZeroOnSigterm) {
  WireWorkloadConfig config;
  config.requests_per_conn = 300;
  const CellularTopology topo = config.make_topology();
  const std::uint64_t reference = run_wire_workload_inprocess(topo, config);
  std::vector<ClauseId> clauses;
  (void)make_wire_policy(topo, config.num_clauses, &clauses);

  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string port_file = dir.path() + "/serverd.port";
  ServerdProcess serverd(port_file);
  ASSERT_TRUE(serverd.running()) << "cannot spawn " << SOFTCELL_SERVERD_PATH;
  const auto port = serverd.wait_for_port(port_file, 30'000ms);
  ASSERT_TRUE(port.has_value()) << "serverd never published its port";

  const WireLoadResult result =
      run_wire_load(*port, topo.num_base_stations(), clauses, config);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.received,
            static_cast<std::uint64_t>(config.connections) *
                config.requests_per_conn);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.server.fingerprint, reference);

  const auto status = serverd.stop(30'000ms);
  ASSERT_TRUE(status.has_value()) << "serverd did not exit after SIGTERM";
  ASSERT_TRUE(WIFEXITED(*status)) << "serverd killed by a signal";
  EXPECT_EQ(WEXITSTATUS(*status), 0);
}

// The serving stats surface in the global telemetry registry next to the
// rest of the control plane (collector-hook pattern, like ofp.* faults).
TEST(NetServer, StatsSurfaceInTelemetryRegistry) {
  EchoDispatcher dispatcher;
  ServerHarness h(dispatcher);
  ASSERT_TRUE(h.ok());

  net::WireConn conn;
  std::string err;
  ASSERT_TRUE(conn.connect(h.port(), &err)) << err;
  ASSERT_TRUE(conn.echo(1));

  const telemetry::Snapshot snapshot = telemetry::Registry::global().collect();
  const auto* accepts = snapshot.find("net.accepts");
  ASSERT_NE(accepts, nullptr);
  EXPECT_GE(accepts->count, 1u);
  EXPECT_NE(snapshot.find("net.bytes_in"), nullptr);
  EXPECT_NE(snapshot.find("net.conns_open"), nullptr);
}

}  // namespace
}  // namespace softcell
