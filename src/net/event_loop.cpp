#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace softcell::net {

namespace {

// Token 0 is reserved for the wakeup eventfd so handler tokens start at 1.
constexpr std::uint64_t kWakeToken = 0;

std::uint32_t to_epoll(std::uint32_t events) {
  std::uint32_t e = 0;
  if (events & EventLoop::kReadable) e |= EPOLLIN;
  if (events & EventLoop::kWritable) e |= EPOLLOUT;
  return e;  // EPOLLERR/EPOLLHUP are always reported; no need to request
}

std::uint32_t from_epoll(std::uint32_t e) {
  std::uint32_t events = 0;
  if (e & EPOLLIN) events |= EventLoop::kReadable;
  if (e & EPOLLOUT) events |= EventLoop::kWritable;
  if (e & EPOLLERR) events |= EventLoop::kError;
  if (e & (EPOLLHUP | EPOLLRDHUP)) events |= EventLoop::kHangup;
  return events;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint64_t EventLoop::add(int fd, std::uint32_t events, FdHandler fn) {
  const std::uint64_t token = next_token_++;
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return 0;
  entries_.emplace(token, Entry{fd, std::move(fn)});
  return token;
}

bool EventLoop::modify(std::uint64_t token, std::uint32_t events) {
  const auto it = entries_.find(token);
  if (it == entries_.end()) return false;
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.u64 = token;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, it->second.fd, &ev) == 0;
}

void EventLoop::remove(std::uint64_t token) {
  const auto it = entries_.find(token);
  if (it == entries_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  entries_.erase(it);
}

void EventLoop::post(Task task) {
  {
    sc::LockGuard lock(mu_);
    tasks_.push_back(std::move(task));
  }
  // The loop sees its own posts before it next blocks (run() polls with a
  // zero timeout while tasks are queued).
  if (in_loop_thread()) return;
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; ignore errors.
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::stop() {
  {
    sc::LockGuard lock(mu_);
    stop_requested_ = true;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_tasks() {
  {
    sc::LockGuard lock(mu_);
    running_.swap(tasks_);
  }
  for (Task& t : running_) t();
  running_.clear();
}

void EventLoop::run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  {
    sc::LockGuard lock(mu_);
    stop_requested_ = false;
  }
  epoll_event events[64];
  int timeout_ms = -1;
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself broke; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      // A handler earlier in this batch may have removed this entry (conn
      // close); the token lookup drops the stale event on the floor.
      const auto it = entries_.find(token);
      if (it == entries_.end()) continue;
      it->second.fn(from_epoll(events[i].events));
    }
    drain_tasks();
    {
      sc::LockGuard lock(mu_);
      if (stop_requested_ && tasks_.empty()) break;
      // Tasks posted from the loop thread by a task have no wake-up
      // behind them: poll, do not block.
      timeout_ms = tasks_.empty() ? -1 : 0;
    }
  }
  loop_thread_.store(std::thread::id{}, std::memory_order_release);
}

}  // namespace softcell::net
