// The request queue of the control-plane runtime.
//
// BoundedMpmcQueue is each thread-pool worker's one queue (see
// thread_pool.hpp): any number of producers and consumers, FIFO per
// producer, blocking push with backpressure (a full queue stalls producers
// instead of growing without bound, so a burst of requests slows admission
// rather than exhausting memory).  pop_all() hands a consumer everything
// queued under one lock, so a busy worker pays one lock round-trip per
// batch, not per task.
#pragma once

#include <cstddef>
#include <deque>
#include <stdexcept>
#include <utility>

#include "util/annotations.hpp"

namespace softcell {

// Bounded multi-producer/multi-consumer FIFO queue.  Blocking push and
// batch pop with condvar wakeups.  close() releases all waiters: pending
// pushes fail, pop_all drains the remaining items and then fails.  All
// operations are thread-safe; `mu_` is the queue's capability and guards
// the item deque and the closed flag.
template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0)
      throw std::invalid_argument("BoundedMpmcQueue: capacity must be > 0");
  }

  // Blocks while the queue is full (backpressure).  Returns false if the
  // queue was closed before the item could be enqueued; `item` is moved
  // from only on success, so a refused caller still holds it.
  bool push(T&& item) SC_EXCLUDES(mu_) {
    sc::UniqueLock lock(mu_);
    not_full_.wait(lock, [&]() SC_REQUIRES(mu_) {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Blocks while the queue is empty, then moves every queued item into
  // `out` (which must be empty) in FIFO order.  Returns false once the
  // queue is closed *and* drained.
  bool pop_all(std::deque<T>& out) SC_EXCLUDES(mu_) {
    {
      sc::UniqueLock lock(mu_);
      not_empty_.wait(lock, [&]() SC_REQUIRES(mu_) {
        return closed_ || !items_.empty();
      });
      if (items_.empty()) return false;  // closed and drained
      out.swap(items_);
    }
    not_full_.notify_all();
    return true;
  }

  void close() SC_EXCLUDES(mu_) {
    {
      sc::LockGuard lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  const std::size_t capacity_;
  sc::Mutex mu_;
  sc::CondVar not_full_;
  sc::CondVar not_empty_;
  std::deque<T> items_ SC_GUARDED_BY(mu_);
  bool closed_ SC_GUARDED_BY(mu_) = false;
};

}  // namespace softcell
