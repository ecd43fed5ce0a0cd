// Request queues for the control-plane runtime.
//
// Two complementary queues power the thread pool (see thread_pool.hpp):
//   * BoundedMpmcQueue -- the mutex+condvar baseline: any number of
//     producers and consumers, blocking push/pop with backpressure (a full
//     queue stalls producers instead of growing without bound, so a burst
//     of requests slows admission rather than exhausting memory);
//   * SpscRing -- a lock-free single-producer/single-consumer ring used as
//     the per-worker fast path: the dispatcher thread feeds each worker's
//     ring with acquire/release atomics only, no locks on either side.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/annotations.hpp"

namespace softcell {

// Bounded multi-producer/multi-consumer FIFO queue.  Blocking push/pop with
// condvar wakeups; try_* variants never block.  close() releases all
// waiters: pending pushes fail, pops drain the remaining items and then
// fail.  All operations are thread-safe; `mu_` is the queue's capability
// and guards the item deque and the closed flag.
template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0)
      throw std::invalid_argument("BoundedMpmcQueue: capacity must be > 0");
  }

  // Blocks while the queue is full (backpressure).  Returns false if the
  // queue was closed before the item could be enqueued.
  bool push(T item) SC_EXCLUDES(mu_) {
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

  // Never blocks.  Returns false when full or closed.
  bool try_push(T item) SC_EXCLUDES(mu_) {
    {
      sc::LockGuard lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks while the queue is empty.  Returns false once the queue is
  // closed *and* drained.
  bool pop(T& out) SC_EXCLUDES(mu_) {
    sc::UniqueLock lock(mu_);
    not_empty_.wait(lock, [&]() SC_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Never blocks.  Returns false when currently empty.
  bool try_pop(T& out) SC_EXCLUDES(mu_) {
    {
      sc::LockGuard lock(mu_);
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
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

  [[nodiscard]] bool closed() const SC_EXCLUDES(mu_) {
    sc::LockGuard lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t size() const SC_EXCLUDES(mu_) {
    sc::LockGuard lock(mu_);
    return items_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable sc::Mutex mu_;
  sc::CondVar not_full_;
  sc::CondVar not_empty_;
  std::deque<T> items_ SC_GUARDED_BY(mu_);
  bool closed_ SC_GUARDED_BY(mu_) = false;
};

// Lock-free bounded single-producer/single-consumer ring.  Exactly one
// thread may call try_push and exactly one (other) thread try_pop; the
// indices are cache-line separated and each side caches the opposite index
// to avoid ping-ponging the shared lines on every operation.
//
// Capacity is rounded up to a power of two; one slot is sacrificed to
// distinguish full from empty, so usable capacity is 2^n - 1.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity + 1) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  // sc-lint: hotpath(spsc-ring) -- the dispatcher/worker fast path: no
  // locks, no sleeps, no allocation, no hash-map probes, no I/O.

  // Producer side only.  Moves from `item` only on success: a full ring
  // leaves it intact, so the caller can retry with the same object.
  bool try_push(T& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & mask_;
    if (next == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (next == cached_head_) return false;  // full
    }
    slots_[tail] = std::move(item);
    tail_.store(next, std::memory_order_release);
    return true;
  }

  // Consumer side only.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;  // empty
    }
    out = std::move(slots_[head]);
    head_.store((head + 1) & mask_, std::memory_order_release);
    return true;
  }

  // Approximate (exact only from the consumer thread).
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  // sc-lint: endhotpath(spsc-ring)

  [[nodiscard]] std::size_t capacity() const { return mask_; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // next slot to pop
  alignas(64) std::atomic<std::size_t> tail_{0};  // next slot to fill
  alignas(64) std::size_t cached_head_ = 0;       // producer's view of head_
  alignas(64) std::size_t cached_tail_ = 0;       // consumer's view of tail_
};

}  // namespace softcell
