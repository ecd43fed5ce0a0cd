// PathView: an immutable snapshot of the shared core switch-table state --
// the (clause, bs) gateway paths and the m2m half-paths with the transit
// tags they were installed under.
//
// This is the read side of the shard-brain split (DESIGN.md section 16):
// the Fig. 4 boundary puts per-UE state (profiles, locations, classifier
// compilation) on the base-station side, owned by one ShardEngine each,
// while the shared core/gateway switch rows and the tag namespace live in
// the single-writer CoreCommitter.  The committer publishes a fresh
// PathView after every commit; shard-side readers resolve classifier
// tags against whatever snapshot they loaded, without ever touching the
// core's lock.
//
// A PathView is immutable after publication: readers hold it via
// shared_ptr<const PathView> (VersionedSnapshot's RCU load), so a snapshot
// stays valid for as long as any reader keeps the pointer alive, even
// across later commits.
#pragma once

#include <cstdint>
#include <functional>

#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/lifetime.hpp"

namespace softcell {

struct PathView {
  struct M2mKey {
    std::uint32_t clause = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    friend bool operator==(const M2mKey&, const M2mKey&) = default;
  };
  struct M2mKeyHash {
    std::size_t operator()(const M2mKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.clause) << 40) ^
          (static_cast<std::uint64_t>(k.src) << 20) ^ k.dst);
    }
  };

  static std::uint64_t key(ClauseId clause, std::uint32_t bs) {
    return (static_cast<std::uint64_t>(clause.value()) << 32) | bs;
  }

  // (clause, bs) -> transit tag, keyed by key(clause, bs).
  FlatMap<std::uint64_t, PolicyTag> paths;
  // (clause, src_bs, dst_bs) -> m2m half-path transit tag.
  FlatMap<M2mKey, PolicyTag, M2mKeyHash> m2m;
  // Monotonic publish count (0 = the empty pre-commit view).
  std::uint64_t version = 0;
  // Core rule-universe stats at publication time (introspection only).
  std::size_t core_rules = 0;
  std::size_t core_tags = 0;

  // SC_LIFETIMEBOUND: under Clang, binding the result to the lifetime of
  // *this rejects the PR 8 shape (`view()->path(...)` on a temporary
  // snapshot) at compile time; cross-statement escapes are the analyzer's
  // rvalue-snapshot-deref checker (DESIGN.md §17.1).
  [[nodiscard]] const PolicyTag* path(ClauseId clause, std::uint32_t bs)
      const SC_LIFETIMEBOUND {
    const auto it = paths.find(key(clause, bs));
    return it == paths.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const PolicyTag* m2m_tag(ClauseId clause, std::uint32_t src,
                                         std::uint32_t dst)
      const SC_LIFETIMEBOUND {
    const auto it = m2m.find(M2mKey{clause.value(), src, dst});
    return it == m2m.end() ? nullptr : &it->second;
  }
};

}  // namespace softcell
