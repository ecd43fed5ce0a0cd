#include "net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>

#include "net/socket.hpp"

namespace softcell::net {

ControllerServer::ControllerServer(EventLoop& loop, Dispatcher& dispatcher,
                                   Options options)
    : loop_(loop), dispatcher_(dispatcher), options_(options) {
  collector_ = telemetry::Registry::global().add_collector(
      [this](telemetry::MetricSink& sink) { stats_.contribute(sink, "net."); });
}

ControllerServer::~ControllerServer() {
  // Only safe once the loop has stopped; close what we still own.
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

bool ControllerServer::start(std::string* err) {
  listen_fd_ = listen_loopback(options_.port, &port_, err);
  if (listen_fd_ < 0) return false;
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  listen_token_ = loop_.add(listen_fd_, EventLoop::kReadable,
                            [this](std::uint32_t ev) { on_accept(ev); });
  if (listen_token_ == 0) {
    if (err) *err = "epoll_ctl: failed to register listener";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  accepting_ = true;
  return true;
}

void ControllerServer::on_accept(std::uint32_t) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion.  The pending connection stays in the accept
        // queue, so the level-triggered listener would re-report this
        // event forever; sacrifice the reserve fd to accept-and-close
        // the head of the queue, then re-arm the reserve.
        stats_.accept_overflows.fetch_add(1, std::memory_order_relaxed);
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          const int victim = ::accept4(listen_fd_, nullptr, nullptr, 0);
          if (victim >= 0) ::close(victim);
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          continue;
        }
      }
      break;  // EAGAIN: accepted everything pending
    }
    if (!accepting_) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      const int sndbuf = static_cast<int>(options_.sndbuf_bytes);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    const std::uint64_t id = conn->id;
    conn->token =
        loop_.add(fd, EventLoop::kReadable,
                  [this, id](std::uint32_t ev) { on_conn_event(id, ev); });
    if (conn->token == 0) {
      ::close(fd);
      continue;
    }
    stats_.accepts.fetch_add(1, std::memory_order_relaxed);
    stats_.conns_open.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(id, std::move(conn));
  }
}

void ControllerServer::on_conn_event(std::uint64_t id, std::uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if (events & EventLoop::kReadable) {
    on_readable(conn);
    // on_readable may have closed the connection; re-resolve.
    it = conns_.find(id);
    if (it == conns_.end()) return;
  }
  if (events & EventLoop::kWritable) {
    flush_conn(*it->second);
    it = conns_.find(id);
    if (it == conns_.end()) return;
  }
  if ((events & (EventLoop::kError | EventLoop::kHangup)) &&
      !(events & EventLoop::kReadable)) {
    // Hangup with no readable data left: peer is gone.
    close_conn(*it->second);
  }
}

void ControllerServer::on_readable(Conn& conn) {
  const std::uint64_t id = conn.id;
  bool eof = false;
  for (;;) {
    const auto buf = conn.in.writable(options_.read_chunk);
    const auto n = ::recv(conn.fd, buf.data(), buf.size(), 0);
    if (n == 0) {
      eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    conn.in.commit(static_cast<std::size_t>(n));
    stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
    if (static_cast<std::size_t>(n) < buf.size()) break;
  }

  std::span<const std::uint8_t> frame;
  for (;;) {
    const auto status = conn.in.next(frame);
    if (status == ofp::FrameAssembler::Status::kNeedMore) break;
    if (status == ofp::FrameAssembler::Status::kBad) {
      // Broken framing: a length-prefixed stream cannot resync.
      stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
      close_conn(conn);
      return;
    }
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    // Only the burst's last frame may run on this thread: earlier ones
    // would hold back the frames behind them, which the workers could be
    // serving meanwhile.
    if (!handle_frame(conn, frame, conn.in.buffered() == 0)) {
      close_conn(conn);
      return;
    }
    // handle_frame flushes echo/stats replies inline, and a hard send()
    // failure there closes -- destroys -- the conn.  Re-resolve before
    // touching it again (same pattern as on_conn_event).
    if (conns_.find(id) == conns_.end()) return;
  }
  if (eof) close_conn(conn);
}

bool ControllerServer::handle_frame(Conn& conn,
                                    std::span<const std::uint8_t> frame,
                                    bool last_in_burst) {
  const auto h = ofp::peek_header(frame);
  if (!h) {
    stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  switch (static_cast<ofp::MsgType>(h->type)) {
    case ofp::MsgType::kPacketIn: {
      const auto msg = ofp::decode_packet_in(frame);
      if (!msg) {
        // Framing was intact (kFrame) but the payload failed validation;
        // count and keep the stream.
        stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      stats_.packet_ins.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t id = conn.id;
      dispatcher_.dispatch(
          *msg,
          [this, id](ofp::PacketInReply&& reply) {
            queue_reply(id, std::move(reply));
          },
          last_in_burst);
      return true;
    }
    case ofp::MsgType::kEchoRequest: {
      // Control probes bypass the drop-and-count backpressure cap (a
      // client uses echo to observe a drop window, so echo itself must
      // not be droppable) -- but not the hard one: a probe flood that
      // pushes the outbound buffer past control_outbound_limit closes
      // the connection instead of growing it without bound.
      if (conn.unsent() >= options_.control_outbound_limit) {
        stats_.overflow_closes.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      ofp::put_header(conn.out, ofp::MsgType::kEchoReply, ofp::kHeaderSize,
                      h->xid);
      flush_conn(conn);  // may destroy conn; caller re-resolves before reuse
      return true;
    }
    case ofp::MsgType::kServerStatsRequest: {
      if (conn.unsent() >= options_.control_outbound_limit) {
        stats_.overflow_closes.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      ofp::ServerStatsMsg stats;
      stats.xid = h->xid;
      stats.fingerprint = dispatcher_.fingerprint();
      stats.packet_ins = stats_.packet_ins.load(std::memory_order_relaxed);
      stats.replies = stats_.replies_out.load(std::memory_order_relaxed);
      stats.drops =
          stats_.backpressure_drops.load(std::memory_order_relaxed) +
          stats_.dropped_replies.load(std::memory_order_relaxed);
      ofp::encode_server_stats_into(conn.out, stats);
      flush_conn(conn);  // may destroy conn; caller re-resolves before reuse
      return true;
    }
    default:
      // A type the serving plane does not speak (e.g. a stray FlowMod).
      stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
      return true;
  }
}

void ControllerServer::queue_reply(std::uint64_t conn_id,
                                   ofp::PacketInReply&& reply) {
  bool schedule = false;
  {
    sc::LockGuard lock(reply_mu_);
    pending_replies_.emplace_back(conn_id, std::move(reply));
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      schedule = true;
    }
  }
  // One posted flush task per batch: every reply that lands while it is
  // queued rides along, however many workers produced them.
  if (schedule) loop_.post([this] { flush_pending_replies(); });
}

void ControllerServer::flush_pending_replies() {
  {
    sc::LockGuard lock(reply_mu_);
    flushing_.swap(pending_replies_);
    flush_scheduled_ = false;
  }
  if (flushing_.empty()) return;
  stats_.reply_batches.fetch_add(1, std::memory_order_relaxed);

  // Batch-encode: group by connection (append to each conn's outbound
  // buffer), then one flush per touched connection.
  for (auto& [id, reply] : flushing_) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) {
      // Connection dropped mid-request; the runtime still completed it.
      stats_.dropped_replies.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Conn& conn = *it->second;
    if (conn.unsent() >= options_.max_outbound_bytes) {
      // Slow client: it stopped reading and its buffer is at the cap.
      stats_.backpressure_drops.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (conn.unsent() == 0 && !conn.out.empty()) {
      // Compact before appending so the buffer never grows unboundedly
      // from sent-prefix residue.
      conn.out.clear();
      conn.out_pos = 0;
    }
    ofp::encode_packet_in_reply_into(conn.out, reply);
    stats_.replies_out.fetch_add(1, std::memory_order_relaxed);
    if (std::find(touched_.begin(), touched_.end(), &conn) == touched_.end())
      touched_.push_back(&conn);
  }
  flushing_.clear();
  for (Conn* conn : touched_) flush_conn(*conn);
  touched_.clear();
}

bool ControllerServer::flush_conn(Conn& conn) {
  while (conn.unsent() > 0) {
    const auto n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                          conn.unsent(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Short write: the kernel buffer is full; hand the rest to epoll.
        stats_.short_writes.fetch_add(1, std::memory_order_relaxed);
        if (!conn.want_write) {
          conn.want_write = true;
          loop_.modify(conn.token,
                       EventLoop::kReadable | EventLoop::kWritable);
        }
        return true;
      }
      close_conn(conn);  // destroys conn
      return false;
    }
    conn.out_pos += static_cast<std::size_t>(n);
    stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
  }
  conn.out.clear();
  conn.out_pos = 0;
  if (conn.want_write) {
    conn.want_write = false;
    loop_.modify(conn.token, EventLoop::kReadable);
  }
  return true;
}

void ControllerServer::close_conn(Conn& conn) {
  loop_.remove(conn.token);
  ::close(conn.fd);
  conn.fd = -1;
  stats_.closes.fetch_add(1, std::memory_order_relaxed);
  stats_.conns_open.fetch_add(-1, std::memory_order_relaxed);
  conns_.erase(conn.id);  // destroys `conn`
}

void ControllerServer::run_on_loop(std::function<void()> fn) {
  if (loop_.in_loop_thread()) {
    fn();
    return;
  }
  sc::Mutex mu;
  sc::CondVar cv;
  bool done = false;
  loop_.post([&] {
    fn();
    // Signal under the lock: the waiter owns cv on its stack, and may
    // only destroy it after reacquiring mu -- i.e. after notify_one has
    // returned.
    sc::LockGuard lock(mu);
    done = true;
    cv.notify_one();
  });
  sc::UniqueLock lock(mu);
  cv.wait(lock, [&] { return done; });
}

bool ControllerServer::drain(std::chrono::milliseconds timeout) {
  // 1. Stop accepting (new connections would race the quiesce).
  run_on_loop([this] {
    if (accepting_) {
      accepting_ = false;
      loop_.remove(listen_token_);
      listen_token_ = 0;
    }
  });
  // 2. Let every in-flight request complete; their replies land in
  //    pending_replies_ (or are already flushed) once this returns.
  dispatcher_.drain();
  // 3. Flush until every outbound buffer is empty or the deadline hits.
  //    flush_pending_replies() is idempotent, so running it here also
  //    covers a flush task the loop has not picked up yet.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    std::size_t unsent = 0;
    run_on_loop([&] {
      flush_pending_replies();
      // flush_conn may close (erase) a broken connection; iterate a
      // snapshot of ids, not the live map.
      std::vector<std::uint64_t> ids;
      ids.reserve(conns_.size());
      for (auto& [id, conn] : conns_) ids.push_back(id);
      for (const std::uint64_t id : ids) {
        const auto it = conns_.find(id);
        if (it != conns_.end()) flush_conn(*it->second);
      }
      for (auto& [id, conn] : conns_) unsent += conn->unsent();
    });
    if (unsent == 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void ControllerServer::request_stop() {
  loop_.post([this] {
    if (accepting_) {
      accepting_ = false;
      loop_.remove(listen_token_);
      listen_token_ = 0;
    }
    while (!conns_.empty()) close_conn(*conns_.begin()->second);
    loop_.stop();
  });
}

}  // namespace softcell::net
