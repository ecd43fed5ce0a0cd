// Fixed-size worker pool: one bounded queue per worker, drained in batches.
//
// Each worker owns one BoundedMpmcQueue (see queue.hpp).  submit_to()
// pushes onto the chosen worker's queue; the worker blocks while its queue
// is empty, then takes everything queued under one lock (pop_all) and runs
// that batch unlocked.  Under a flood the worker pays one lock round-trip
// per batch, and an idle worker sleeps on the queue's condvar -- a push
// wakes it, so there is no timed park and no lost-wakeup window.
//
// Ordering guarantee: tasks submitted to the same worker from the same
// thread are executed in submission FIFO order.  This is what makes the
// sharded pipeline deterministic -- a shard maps to exactly one worker, so
// per-shard request order equals submission order (see runtime.hpp).
// Tasks from different producers interleave in push order.
//
// Backpressure: a full queue blocks the producer until its worker takes a
// batch, so admission slows instead of memory growing without bound.
//
// Capability map (see DESIGN.md section 12): `lifecycle_mu_` guards the
// started_/stopped_ lifecycle flags; each queue guards itself.  Callers
// that need to wait for completions track them themselves (the runtime
// counts in-flight requests); stop() runs every accepted task.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/queue.hpp"
#include "util/annotations.hpp"

namespace softcell {

struct ThreadPoolOptions {
  unsigned workers = 1;
  std::size_t queue_capacity = 1024;  // per-worker bounded queue
  // Test hook: construct without launching the workers; start() does.
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
      : handler_(std::move(handler)) {
    const unsigned n = options.workers == 0 ? 1 : options.workers;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      workers_.push_back(std::make_unique<Worker>(options.queue_capacity));
    if (!options.start_suspended) start();
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

  // Closes every queue, lets the workers drain them, then joins.
  // Submissions racing with stop() may be rejected (return false).
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
    for (auto& w : workers_) w->queue.close();
    for (unsigned i = 0; i < workers_.size(); ++i) {
      // Never ran: drain inline so stop() keeps the "all accepted tasks
      // run" contract even for a suspended pool.
      if (!started) run_worker(i);
      else workers_[i]->thread.join();
    }
  }

  // Submits to a specific worker.  FIFO relative to other submit_to calls
  // from this same thread to this same worker.  Blocks while the worker's
  // queue is full; returns false if the pool is stopping.
  bool submit_to(unsigned worker, Task task) {
    return workers_[worker % workers_.size()]->queue.push(std::move(task));
  }

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  struct Worker {
    explicit Worker(std::size_t capacity) : queue(capacity) {}
    BoundedMpmcQueue<Task> queue;
    std::thread thread;
  };

  // Runs batches from worker `index`'s queue until it is closed and empty.
  void run_worker(unsigned index) {
    std::deque<Task> batch;
    while (workers_[index]->queue.pop_all(batch)) {
      for (Task& t : batch) handler_(index, t);
      batch.clear();
    }
  }

  Handler handler_;
  std::vector<std::unique_ptr<Worker>> workers_;
  sc::Mutex lifecycle_mu_;
  bool started_ SC_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ SC_GUARDED_BY(lifecycle_mu_) = false;
};

}  // namespace softcell
