// softcell::mem -- chunked slab/arena storage for million-UE resident
// state (ROADMAP item 2).
//
// A Slab<T> owns its elements in fixed-size chunks of raw slots (256
// elements per chunk) and hands out 64-bit handles (32-bit slot index +
// 32-bit generation) instead of pointers.  Chunks never move once
// allocated, so element addresses are stable for an element's whole
// lifetime -- the property std::unordered_map gave callers that hold a V*
// across unrelated inserts, and a hard requirement for non-trivially-
// relocatable payloads (SSO std::string self-points; a reallocating
// vector-of-raw-slots would memcpy it into nonsense).  Freed slots go on a
// LIFO free list and are reused by the next emplace; the generation
// counter is bumped on both allocation and release, so a stale handle held
// across an erase dereferences to nullptr instead of the slot's new tenant
// (use-after-free becomes a checkable miss).
//
// Invariants:
//   * gen_[i] is odd  <=> slot i is live; a live handle's generation equals
//     gen_[i], so any parity or value mismatch means "stale".
//   * iteration (for_each) visits live slots in index order -- erasing other
//     elements never reorders the survivors, which keeps digest-sensitive
//     walks stable under churn.
//   * storage never shrinks; bytes_resident() reports the true footprint
//     (chunks + generations + free list), the number the million-UE bench
//     divides by attached UEs.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/lifetime.hpp"

namespace softcell::mem {

// Index+generation handle into a Slab.  A default-constructed Handle is
// null (falsy) and never resolves.
struct Handle {
  static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

  std::uint32_t index = kInvalidIndex;
  std::uint32_t generation = 0;

  [[nodiscard]] constexpr explicit operator bool() const {
    return index != kInvalidIndex;
  }
  friend constexpr bool operator==(const Handle&, const Handle&) = default;
};

template <typename T>
class Slab {
 public:
  Slab() = default;

  Slab(const Slab& other) { copy_from(other); }
  Slab& operator=(const Slab& other) {
    if (this != &other) {
      clear();
      copy_from(other);
    }
    return *this;
  }
  Slab(Slab&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        gen_(std::move(other.gen_)),
        free_(std::move(other.free_)),
        live_(other.live_) {
    other.chunks_.clear();
    other.gen_.clear();
    other.free_.clear();
    other.live_ = 0;
  }
  Slab& operator=(Slab&& other) noexcept {
    if (this != &other) {
      clear();
      chunks_ = std::move(other.chunks_);
      gen_ = std::move(other.gen_);
      free_ = std::move(other.free_);
      live_ = other.live_;
      other.chunks_.clear();
      other.gen_.clear();
      other.free_.clear();
      other.live_ = 0;
    }
    return *this;
  }

  ~Slab() { destroy_live(); }

  template <typename... Args>
  Handle emplace(Args&&... args) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(gen_.size());
      assert(idx != Handle::kInvalidIndex && "slab index space exhausted");
      if ((idx >> kChunkShift) == chunks_.size())
        chunks_.push_back(std::make_unique<Chunk>());
      gen_.push_back(0);
    }
    new (slot_ptr(idx)) T(std::forward<Args>(args)...);
    ++gen_[idx];  // even -> odd: live
    ++live_;
    return Handle{idx, gen_[idx]};
  }

  [[nodiscard]] T* get(Handle h) SC_LIFETIMEBOUND {
    return valid(h) ? slot_ptr(h.index) : nullptr;
  }
  [[nodiscard]] const T* get(Handle h) const SC_LIFETIMEBOUND {
    return valid(h) ? slot_ptr(h.index) : nullptr;
  }
  [[nodiscard]] bool valid(Handle h) const {
    return h.index < gen_.size() && (h.generation & 1u) != 0 &&
           gen_[h.index] == h.generation;
  }

  // Releases the element behind `h`.  Returns false (and does nothing) when
  // the handle is already stale.
  bool erase(Handle h) {
    if (!valid(h)) return false;
    slot_ptr(h.index)->~T();
    ++gen_[h.index];  // odd -> even: free
    free_.push_back(h.index);
    --live_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t slot_count() const { return gen_.size(); }

  void reserve(std::size_t n) {
    gen_.reserve(n);
    chunks_.reserve((n + kChunkSize - 1) >> kChunkShift);
  }

  void clear() {
    destroy_live();
    chunks_.clear();
    gen_.clear();
    free_.clear();
    live_ = 0;
  }

  // Visits live elements in slot-index order.  `fn` takes (Handle, T&) or
  // (Handle, const T&).  Erasing the *visited* element from inside fn is
  // allowed (the generation snapshot below stays valid for the skip check);
  // inserting during iteration is not.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t i = 0; i < gen_.size(); ++i)
      if ((gen_[i] & 1u) != 0) fn(Handle{i, gen_[i]}, *slot_ptr(i));
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = 0; i < gen_.size(); ++i)
      if ((gen_[i] & 1u) != 0) fn(Handle{i, gen_[i]}, *slot_ptr(i));
  }

  [[nodiscard]] std::size_t bytes_resident() const {
    return chunks_.size() * sizeof(Chunk) +
           chunks_.capacity() * sizeof(std::unique_ptr<Chunk>) +
           gen_.capacity() * sizeof(std::uint32_t) +
           free_.capacity() * sizeof(std::uint32_t) + sizeof(*this);
  }

 private:
  // 256 slots per chunk: large enough to amortize the pointer hop, small
  // enough that a sparsely-used slab is not dominated by chunk slack.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct Slot {
    alignas(T) unsigned char raw[sizeof(T)];
  };
  struct Chunk {
    Slot slots[kChunkSize];
  };

  [[nodiscard]] T* slot_ptr(std::uint32_t i) {
    return std::launder(reinterpret_cast<T*>(
        chunks_[i >> kChunkShift]->slots[i & (kChunkSize - 1)].raw));
  }
  [[nodiscard]] const T* slot_ptr(std::uint32_t i) const {
    return std::launder(reinterpret_cast<const T*>(
        chunks_[i >> kChunkShift]->slots[i & (kChunkSize - 1)].raw));
  }

  void destroy_live() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::uint32_t i = 0; i < gen_.size(); ++i)
        if ((gen_[i] & 1u) != 0) slot_ptr(i)->~T();
    }
  }

  // Replicates slot positions, generations and the free list exactly, so
  // copied handles resolve identically in the copy (ControlStore keeps
  // replicated SlowStates).
  void copy_from(const Slab& other) {
    chunks_.reserve(other.chunks_.size());
    for (std::size_t c = 0; c < other.chunks_.size(); ++c)
      chunks_.push_back(std::make_unique<Chunk>());
    gen_ = other.gen_;
    free_ = other.free_;
    live_ = other.live_;
    for (std::uint32_t i = 0; i < gen_.size(); ++i)
      if ((gen_[i] & 1u) != 0) new (slot_ptr(i)) T(*other.slot_ptr(i));
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> gen_;  // odd = live; bumped on alloc and free
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace softcell::mem
