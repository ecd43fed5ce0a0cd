// softcell::net -- the controller's TCP serving front end.
//
// ControllerServer accepts switch-agent connections on loopback TCP,
// batch-decodes packet-in frames out of the byte stream (FrameAssembler
// handles arbitrary fragmentation), routes them through the Dispatcher
// boundary into the runtime pipeline, and batch-encodes the replies back.
//
// Threading (DESIGN.md section 18): the EventLoop thread owns every fd and
// every Conn.  Runtime worker completions never touch a socket -- they
// call queue_reply(), which appends to a pending vector under a mutex and
// posts ONE flush task per batch back to the loop; the flush task groups
// replies by connection, encodes them directly into each connection's
// outbound buffer, and issues one send() per touched connection.  That is
// the reply-side batching mirror of the install path's (bs, clause)
// batching.  The last frame of each read burst is offered to the
// dispatcher inline: a classifier fetch whose owning worker is idle then
// runs to completion on the loop thread, and its queue_reply() posts the
// flush from the loop thread -- no worker hop, no eventfd write -- so its
// reply joins the same iteration's flush.  Every other request is posted.
//
// Backpressure: each connection's outbound buffer is bounded
// (Options::max_outbound_bytes).  A slow client -- one that stops reading
// while replies accumulate -- has further replies dropped and counted
// (net.backpressure_drops) instead of growing the buffer without bound or
// stalling the loop; the connection itself stays open and drains at the
// client's pace.  Echo and stats replies bypass the cap (they are the
// probes a client uses to observe the drop).
//
// Drain (SIGTERM path): stop accepting, let the runtime finish every
// in-flight request, flush what the kernel will take, then close.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/dispatch.hpp"
#include "net/event_loop.hpp"
#include "net/net_stats.hpp"
#include "ofp/codec.hpp"
#include "telemetry/registry.hpp"
#include "util/annotations.hpp"

namespace softcell::net {

class ControllerServer {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0 = kernel-chosen ephemeral port
    // Per-connection outbound cap; replies beyond it are dropped+counted.
    std::size_t max_outbound_bytes = 1u << 20;
    // Echo/stats replies bypass the drop cap (they are the probes a
    // client uses to observe a drop window), but not without limit: a
    // connection whose outbound buffer exceeds this while flooding
    // control probes is closed (net.overflow_closes).  Must be larger
    // than max_outbound_bytes to keep the exemption meaningful.
    std::size_t control_outbound_limit = 4u << 20;
    std::size_t read_chunk = 64 * 1024;
    // SO_SNDBUF for accepted sockets; 0 keeps the kernel's autotuned
    // default.  Setting it pins kernel-side buffering, which makes
    // short-write / backpressure behaviour deterministic (tests) and
    // bounds per-connection kernel memory (dense deployments).
    std::size_t sndbuf_bytes = 0;
  };

  // The server registers its NetStats as a telemetry collector ("net.*")
  // for its lifetime.  Destroy only after the loop has stopped (the
  // destructor closes fds without the loop's cooperation).
  ControllerServer(EventLoop& loop, Dispatcher& dispatcher, Options options);
  ControllerServer(EventLoop& loop, Dispatcher& dispatcher)
      : ControllerServer(loop, dispatcher, Options()) {}
  ~ControllerServer();

  ControllerServer(const ControllerServer&) = delete;
  ControllerServer& operator=(const ControllerServer&) = delete;

  // Binds + registers the accept handler.  Call before loop.run() (or from
  // the loop thread).  False with *err set on failure.
  [[nodiscard]] bool start(std::string* err);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] NetStats& stats() { return stats_; }

  // Graceful drain, from any non-loop thread while the loop runs: stop
  // accepting, wait for every dispatched request to complete, then flush
  // outbound buffers until empty or `timeout` elapses.  Returns true if
  // everything flushed.  Does not stop the loop.
  bool drain(std::chrono::milliseconds timeout);

  // Closes every connection and stops the loop (posted; returns
  // immediately).  Call after drain() for the graceful shutdown sequence.
  void request_stop();

 private:
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    std::uint64_t token = 0;
    ofp::FrameAssembler in;
    std::vector<std::uint8_t> out;  // unsent bytes live at [out_pos, size)
    std::size_t out_pos = 0;
    bool want_write = false;  // kWritable armed in the loop

    [[nodiscard]] std::size_t unsent() const { return out.size() - out_pos; }
  };

  void on_accept(std::uint32_t events);
  void on_conn_event(std::uint64_t id, std::uint32_t events);
  // Reads until EAGAIN, then processes every complete frame.
  void on_readable(Conn& conn);
  // True to keep the connection open.  `last_in_burst`: nothing more is
  // buffered behind this frame, so the dispatcher may serve it inline.
  bool handle_frame(Conn& conn, std::span<const std::uint8_t> frame,
                    bool last_in_burst);
  void queue_reply(std::uint64_t conn_id, ofp::PacketInReply&& reply);
  void flush_pending_replies();
  // Sends what the kernel will take.  A hard send() failure closes and
  // DESTROYS the conn; returns false in that case, true if the conn is
  // still alive.  Callers that touch the conn (or any reference to it)
  // afterwards must check the result or re-resolve the id in conns_.
  bool flush_conn(Conn& conn);
  void close_conn(Conn& conn);
  // Runs fn on the loop thread and waits for it (requires a running loop).
  void run_on_loop(std::function<void()> fn);

  EventLoop& loop_;
  Dispatcher& dispatcher_;
  Options options_;
  NetStats stats_;

  int listen_fd_ = -1;
  // Reserved fd (an open /dev/null) sacrificed under EMFILE/ENFILE so
  // accept() can drain-and-close the pending connection instead of
  // leaving the level-triggered listener spinning hot.
  int reserve_fd_ = -1;
  std::uint64_t listen_token_ = 0;
  std::uint16_t port_ = 0;
  bool accepting_ = false;  // loop thread only
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;

  sc::Mutex reply_mu_;
  std::vector<std::pair<std::uint64_t, ofp::PacketInReply>> pending_replies_
      SC_GUARDED_BY(reply_mu_);
  bool flush_scheduled_ SC_GUARDED_BY(reply_mu_) = false;
  // flush_pending_replies()'s working set, kept between calls so a warm
  // loop does not allocate: the batch swapped out of pending_replies_
  // (swapped back in cleared, capacity kept) and the connections it
  // touched.  Loop thread only.
  std::vector<std::pair<std::uint64_t, ofp::PacketInReply>> flushing_;
  std::vector<Conn*> touched_;

  telemetry::Registry::CollectorHandle collector_;
};

}  // namespace softcell::net
