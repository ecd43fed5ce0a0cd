// Fixed-size worker pool with per-worker lock-free fast paths.
//
// Topology of queues (see queue.hpp):
//   * each worker owns an SpscRing fed by one pinned producer thread (the
//     first thread to submit_to() that worker claims the ring) -- the
//     dispatcher fast path, no locks on either side;
//   * each worker also owns a small mutex+condvar overflow queue for
//     submissions from any other thread;
//   * one shared MPMC queue serves submit()-anywhere tasks; idle workers
//     steal from it.
//
// Ordering guarantee: tasks submitted to the same worker from its pinned
// ring producer are executed in submission FIFO order.  This is what makes
// the sharded pipeline deterministic -- a shard maps to exactly one worker,
// so per-shard request order equals submission order (see runtime.hpp).
// Tasks from different producers or the shared queue are unordered
// relative to the ring.
//
// Backpressure: every queue is bounded; a full ring spins the producer
// (yielding) and a full overflow/shared queue blocks it until a worker
// drains, so admission slows instead of memory growing without bound.
//
// Capability map (see DESIGN.md section 12): `lifecycle_mu_` guards the
// started_/stopped_ lifecycle flags; each worker's `park_mu` serializes
// only the park/wake condvar protocol (the asleep flag is an atomic);
// `drain_mu_` exists solely for the drain condvar (pending_ is an atomic).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/queue.hpp"
#include "util/annotations.hpp"

namespace softcell {

struct ThreadPoolOptions {
  unsigned workers = 1;
  std::size_t ring_capacity = 1024;      // per-worker SPSC fast path
  std::size_t overflow_capacity = 256;   // per-worker any-producer queue
  std::size_t shared_capacity = 4096;    // submit()-anywhere MPMC queue
  // Test hook: construct with parked workers and release them via start().
  // Lets a test enqueue a known burst (e.g. duplicate path misses) before
  // any of it executes.
  bool start_suspended = false;
};

template <typename Task>
class ThreadPool {
 public:
  // handler(worker_index, task) runs on a pool thread.
  using Handler = std::function<void(unsigned, Task&)>;

  ThreadPool(ThreadPoolOptions options, Handler handler)
      : options_(options),
        handler_(std::move(handler)),
        shared_(options.shared_capacity) {
    if (options_.workers == 0) options_.workers = 1;
    workers_.reserve(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i)
      workers_.push_back(std::make_unique<Worker>(options_));
    if (!options_.start_suspended) start();
  }

  ~ThreadPool() { stop(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Launches the worker threads (no-op if already running or stopped --
  // the stopped_ check keeps a start() racing stop() from launching
  // workers nobody would ever join).
  void start() SC_EXCLUDES(lifecycle_mu_) {
    sc::LockGuard lock(lifecycle_mu_);
    if (started_ || stopped_) return;
    started_ = true;
    for (unsigned i = 0; i < workers_.size(); ++i)
      workers_[i]->thread = std::thread([this, i] { run_worker(i); });
  }

  // Drains every queue, then joins.  Submissions racing with stop() may be
  // rejected (return false).
  void stop() SC_EXCLUDES(lifecycle_mu_) {
    // Lock-discipline fix (softcell-verify Part A finding): `started_` used
    // to be re-read *outside* lifecycle_mu_ below, racing a concurrent
    // start() -- read it under the same critical section that flips
    // stopped_ instead (tests/test_runtime.cpp ThreadSafety.*).
    bool started;
    {
      sc::LockGuard lock(lifecycle_mu_);
      if (stopped_) return;
      stopped_ = true;
      started = started_;
    }
    stopping_.store(true, std::memory_order_release);
    shared_.close();
    for (auto& w : workers_) {
      w->overflow.close();
      wake(*w);
    }
    if (!started) {
      // Never ran: execute leftovers inline so stop() keeps the "all
      // accepted tasks run" contract even for a suspended pool.
      for (unsigned i = 0; i < workers_.size(); ++i) drain_worker_queues(i);
      Task t;
      while (shared_.try_pop(t)) run_task(0, t);
      return;
    }
    for (auto& w : workers_)
      if (w->thread.joinable()) w->thread.join();
  }

  // Submits to a specific worker.  FIFO relative to other submit_to calls
  // from this same thread to this same worker.  Blocks (bounded queues)
  // under backpressure; returns false if the pool is stopping.
  bool submit_to(unsigned worker, Task task) {
    Worker& w = *workers_[worker % workers_.size()];
    if (stopping_.load(std::memory_order_acquire)) return false;
    const std::uintptr_t self = thread_token();
    std::uintptr_t expected = 0;
    if (w.ring_owner.load(std::memory_order_acquire) == self ||
        w.ring_owner.compare_exchange_strong(expected, self,
                                             std::memory_order_acq_rel)) {
      // Pinned-producer fast path.  A full ring spins (with yields) rather
      // than falling back to the overflow queue: spilling would let later
      // tasks overtake earlier ones and break per-shard FIFO order.
      pending_.fetch_add(1, std::memory_order_acq_rel);
      while (!w.ring.try_push(task)) {
        if (stopping_.load(std::memory_order_acquire)) {
          finish_task();
          return false;
        }
        wake(w);
        std::this_thread::yield();
      }
      wake(w);
      return true;
    }
    pending_.fetch_add(1, std::memory_order_acq_rel);
    if (!w.overflow.push(std::move(task))) {
      finish_task();
      return false;
    }
    wake(w);
    return true;
  }

  // Submits to whichever worker frees up first (shared MPMC queue).
  bool submit(Task task) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    pending_.fetch_add(1, std::memory_order_acq_rel);
    if (!shared_.push(std::move(task))) {
      finish_task();
      return false;
    }
    for (auto& w : workers_) wake(*w);
    return true;
  }

  // Blocks until every submitted task has finished executing.  Only
  // meaningful while no new submissions race with the wait.
  void drain() SC_EXCLUDES(drain_mu_) {
    sc::UniqueLock lock(drain_mu_);
    drain_cv_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] std::uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    explicit Worker(const ThreadPoolOptions& opt)
        : ring(opt.ring_capacity), overflow(opt.overflow_capacity) {}
    SpscRing<Task> ring;
    BoundedMpmcQueue<Task> overflow;
    std::atomic<std::uintptr_t> ring_owner{0};
    std::thread thread;
    // park_mu serializes only the park/wake protocol below; the flag it
    // coordinates is an atomic, so nothing is SC_GUARDED_BY it.
    sc::Mutex park_mu;
    sc::CondVar park_cv;
    std::atomic<bool> asleep{false};
  };

  // Stable per-thread token (address of a thread_local byte).
  static std::uintptr_t thread_token() {
    static thread_local char marker;
    return reinterpret_cast<std::uintptr_t>(&marker);
  }

  void wake(Worker& w) {
    if (w.asleep.load(std::memory_order_acquire)) {
      sc::LockGuard lock(w.park_mu);
      w.park_cv.notify_one();
    }
  }

  void run_task(unsigned index, Task& t) {
    handler_(index, t);
    processed_.fetch_add(1, std::memory_order_relaxed);
    finish_task();
  }

  void finish_task() {
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      sc::LockGuard lock(drain_mu_);
      drain_cv_.notify_all();
    }
  }

  // Runs everything currently queued for worker `index`; returns whether
  // any task ran.  Ring first: its tasks were submitted by the pinned
  // producer and define the per-shard order.
  bool drain_worker_queues(unsigned index) {
    Worker& w = *workers_[index];
    bool did = false;
    Task t;
    while (w.ring.try_pop(t)) {
      run_task(index, t);
      did = true;
    }
    while (w.overflow.try_pop(t)) {
      run_task(index, t);
      did = true;
    }
    return did;
  }

  void run_worker(unsigned index) {
    Worker& w = *workers_[index];
    Task t;
    for (;;) {
      bool did = drain_worker_queues(index);
      if (shared_.try_pop(t)) {
        run_task(index, t);
        did = true;
      }
      if (did) continue;
      if (stopping_.load(std::memory_order_acquire) && w.ring.empty() &&
          w.overflow.empty() && shared_.empty())
        return;
      // Park.  The wait_for timeout bounds any lost-wakeup window (a
      // producer may read asleep == false just before we set it), keeping
      // the protocol simple instead of fencing the flag against the
      // lock-free ring.
      sc::UniqueLock lock(w.park_mu);
      w.asleep.store(true, std::memory_order_release);
      if (!w.ring.empty() || !w.overflow.empty() || !shared_.empty() ||
          stopping_.load(std::memory_order_acquire)) {
        w.asleep.store(false, std::memory_order_release);
        continue;
      }
      w.park_cv.wait_for(lock, std::chrono::microseconds(500));
      w.asleep.store(false, std::memory_order_release);
    }
  }

  ThreadPoolOptions options_;
  Handler handler_;
  BoundedMpmcQueue<Task> shared_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> processed_{0};
  sc::Mutex lifecycle_mu_;
  bool started_ SC_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ SC_GUARDED_BY(lifecycle_mu_) = false;
  sc::Mutex drain_mu_;
  sc::CondVar drain_cv_;
};

}  // namespace softcell
