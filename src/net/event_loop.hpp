// softcell::net -- single-threaded epoll event loop.
//
// One thread owns every fd: handlers are registered, modified and removed
// only from the loop thread (asserted), so per-connection state needs no
// locking.  The two cross-thread entry points are post() -- enqueue a task
// and wake the loop via an eventfd -- and stop().  This is the standard
// reactor shape (DESIGN.md section 18): the runtime's worker completions
// never touch a socket directly; they post the reply batch back to the
// loop, which is the single owner of fd lifecycle (lint rule raw-socket
// pins the syscalls to this directory).  A post() from the loop thread
// itself skips the eventfd: run() polls with a zero timeout while tasks
// are queued, so the loop never wakes itself through the kernel.
//
// Registration hands back a monotonically increasing token rather than the
// fd itself: the kernel reuses fd numbers immediately after close(), and a
// stale epoll event dispatched by number could land on the wrong, newly
// accepted connection.  Tokens are never reused, so a stale event finds no
// entry and is dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/annotations.hpp"

namespace softcell::net {

class EventLoop {
 public:
  // Bitmask passed to handlers; values match EPOLLIN/EPOLLOUT/EPOLLERR,
  // re-exported so headers outside src/net/ never include <sys/epoll.h>.
  static constexpr std::uint32_t kReadable = 0x001;   // EPOLLIN
  static constexpr std::uint32_t kWritable = 0x004;   // EPOLLOUT
  static constexpr std::uint32_t kError = 0x008;      // EPOLLERR
  static constexpr std::uint32_t kHangup = 0x010;     // EPOLLHUP

  using FdHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // True once the epoll and wakeup fds exist; false means the constructor
  // failed (callers bail out instead of running a dead loop).
  [[nodiscard]] bool ok() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  // --- loop-thread-only fd registration -------------------------------------
  // (Also legal before run() starts, from the thread that will own setup.)

  // Registers fd; returns a token for modify/remove, 0 on failure.  The
  // loop never closes the fd -- the caller owns its lifetime.
  [[nodiscard]] std::uint64_t add(int fd, std::uint32_t events, FdHandler fn);
  bool modify(std::uint64_t token, std::uint32_t events);
  void remove(std::uint64_t token);
  [[nodiscard]] std::size_t watched() const { return entries_.size(); }

  // --- any-thread entry points ----------------------------------------------

  // Enqueues `task` to run on the loop thread and wakes it (no wake-up
  // needed when called from the loop thread).  Tasks run in post order,
  // after the fd events of the iteration that picks them up.
  void post(Task task);

  // Makes run() return after the current iteration.
  void stop();

  // Blocks, dispatching events and posted tasks, until stop().
  void run();

  [[nodiscard]] bool in_loop_thread() const {
    return std::this_thread::get_id() ==
           loop_thread_.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    int fd = -1;
    FdHandler fn;
  };

  void drain_tasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  // Written by run() at loop start/exit, read from arbitrary threads via
  // in_loop_thread() (e.g. a drain thread deciding whether to post);
  // atomic so the cross-thread read is not a data race.  Default-
  // constructed id = no loop running.
  std::atomic<std::thread::id> loop_thread_{};
  std::uint64_t next_token_ = 1;
  std::unordered_map<std::uint64_t, Entry> entries_;  // loop thread only
  // The batch drain_tasks() runs, swapped with tasks_ and handed back
  // cleared, so neither vector reallocates once warm.  Loop thread only.
  std::vector<Task> running_;

  sc::Mutex mu_;
  std::vector<Task> tasks_ SC_GUARDED_BY(mu_);
  bool stop_requested_ SC_GUARDED_BY(mu_) = false;
};

}  // namespace softcell::net
