// SlabMap: an associative container for per-UE / per-flow control-plane
// state.
//
// Keys live once in an open-addressing FlatMap that maps K -> mem::Handle,
// and values live in a Slab<V> -- contiguous storage, no per-entry heap
// node, and value addresses that stay stable across unrelated inserts and
// erases (the property the controller relies on when it holds a V* across
// an engine call, and the property std::unordered_map gave us for free).
//
// Iteration (for_each) is deterministic for a given operation sequence but
// follows the index's slot order, not insertion or key order --
// digest-sensitive walks must sort or fold order-insensitively, which is
// the codebase-wide rule state_fingerprint() and recompact() already
// follow.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <utility>

#include "mem/slab.hpp"
#include "util/flat_map.hpp"
#include "util/lifetime.hpp"

namespace softcell::mem {

template <typename K, typename V, typename Hash = std::hash<K>>
class SlabMap {
 public:
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] V* find(const K& key) SC_LIFETIMEBOUND {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : slab_.get(it->second);
  }
  [[nodiscard]] const V* find(const K& key) const SC_LIFETIMEBOUND {
    return const_cast<SlabMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(const K& key) const {
    return index_.contains(key);
  }

  [[nodiscard]] V& at(const K& key) SC_LIFETIMEBOUND {
    V* v = find(key);
    if (v == nullptr) throw std::out_of_range("SlabMap::at");
    return *v;
  }
  [[nodiscard]] const V& at(const K& key) const SC_LIFETIMEBOUND {
    const V* v = find(key);
    if (v == nullptr) throw std::out_of_range("SlabMap::at");
    return *v;
  }

  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    const auto [it, fresh] = index_.try_emplace(key);
    if (fresh) it->second = slab_.emplace(std::forward<Args>(args)...);
    return {slab_.get(it->second), fresh};
  }

  V& operator[](const K& key) SC_LIFETIMEBOUND {
    return *try_emplace(key).first;
  }

  std::size_t erase(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return 0;
    slab_.erase(it->second);
    index_.erase(it);
    return 1;
  }

  void clear() {
    index_.clear();
    slab_.clear();
  }

  void reserve(std::size_t n) {
    index_.reserve(n);
    slab_.reserve(n);
  }

  // fn(const K&, V&) / fn(const K&, const V&).  Mutating the map during
  // iteration is not allowed.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [k, h] : index_) fn(static_cast<const K&>(k), *slab_.get(h));
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [k, h] : index_) fn(k, *slab_.get(h));
  }

  // Resident footprint: the value slab plus the key index.
  [[nodiscard]] std::size_t bytes_resident() const {
    return slab_.bytes_resident() + index_bytes();
  }

 private:
  [[nodiscard]] std::size_t index_bytes() const {
    // FlatMap keeps a dense entry vector plus a power-of-two u32 index kept
    // under 3/4 load; capacity() is not exposed, so charge size * 4/3 for
    // the index and size for the entries (amortized lower bound, within a
    // growth factor of truth).
    using Entry = typename FlatMap<K, Handle, Hash>::value_type;
    return index_.size() * sizeof(Entry) +
           (index_.size() * 4 / 3 + 16) * sizeof(std::uint32_t) +
           sizeof(index_);
  }

  FlatMap<K, Handle, Hash> index_;  // key -> value handle
  Slab<V> slab_;                    // values, stable addresses
};

}  // namespace softcell::mem
