// Replicated control-plane state (paper section 5.2).
//
// The controller state has two halves with very different dynamics:
//   * slow state -- the service policy, subscriber attributes and installed
//     policy paths -- replicated with strong consistency (every write is
//     applied to all replicas before it is acknowledged);
//   * fast state -- UE locations -- NOT synchronously replicated.  A UE is
//     attached to exactly one base station, so after a primary failure the
//     new primary rebuilds the location map by querying each base station's
//     local agent.
//
// Storage layout: per-UE and per-path records live in mem::SlabMap --
// contiguous slab storage keyed through a flat index, one heap node and one
// pointer chase cheaper per subscriber than the node-based maps it replaced
// (DESIGN.md section 15).
//
// Thread safety: ControlStore is NOT internally synchronized.  It is owned
// by exactly one Controller (one shard of the runtime) and every access
// happens under that controller's mutex -- the capability is expressed at
// the owner: Controller declares `ControlStore store_ SC_GUARDED_BY(mu_)`
// (softcell-verify Part A), so the thread-safety analysis flags any access
// that escapes the controller's lock sections.  profile() returns the
// subscriber record *by value*, so nothing a caller obtains here can be
// invalidated by later writes, a rehash, or fail_primary().  mutate()
// applies a write to every replica before returning, so a reader that runs
// strictly before or after a (controller-serialized) write always observes
// consistent replicas; replicas_consistent() checks that invariant.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mem/slab_map.hpp"
#include "packet/prefix.hpp"
#include "policy/policy.hpp"
#include "util/ids.hpp"
#include "util/lifetime.hpp"

namespace softcell {

struct UeLocation {
  std::uint32_t bs = 0;
  LocalUeId local{};

  friend bool operator==(const UeLocation&, const UeLocation&) = default;
};

// Slow state: replicated synchronously.
struct SlowState {
  // Installed policy paths: (clause, bs) -> primary tag.
  struct PathKey {
    ClauseId clause;
    std::uint32_t bs = 0;
    friend bool operator==(const PathKey&, const PathKey&) = default;
  };
  struct PathKeyHash {
    size_t operator()(const PathKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.clause.value()) << 32) | k.bs);
    }
  };

  mem::SlabMap<UeId, SubscriberProfile> profiles;
  mem::SlabMap<PathKey, PolicyTag, PathKeyHash> paths;
  std::uint64_t version = 0;

  [[nodiscard]] std::size_t bytes_resident() const {
    return profiles.bytes_resident() + paths.bytes_resident();
  }
};

// A store with `replicas` synchronized copies of the slow state and a
// primary-local copy of the fast (location) state.
class ControlStore {
 public:
  explicit ControlStore(std::size_t replicas = 3) : slow_(replicas) {
    if (replicas == 0)
      throw std::invalid_argument("ControlStore: need at least one replica");
  }

  // --- slow state: replicated writes --------------------------------------
  void put_profile(UeId ue, const SubscriberProfile& p) {
    mutate([&](SlowState& s) { s.profiles[ue] = p; });
  }
  // Returns a copy: the result stays valid across later put_profile()
  // rehashes and fail_primary() (which destroys the primary replica a
  // returned pointer would dangle into).
  [[nodiscard]] std::optional<SubscriberProfile> profile(UeId ue) const {
    const SubscriberProfile* p = primary().profiles.find(ue);
    if (p == nullptr) return std::nullopt;
    return *p;
  }

  void put_path(ClauseId clause, std::uint32_t bs, PolicyTag tag) {
    mutate([&](SlowState& s) { s.paths[{clause, bs}] = tag; });
  }
  [[nodiscard]] std::optional<PolicyTag> path(ClauseId clause,
                                              std::uint32_t bs) const {
    const PolicyTag* t = primary().paths.find({clause, bs});
    if (t == nullptr) return std::nullopt;
    return *t;
  }
  void erase_path(ClauseId clause, std::uint32_t bs) {
    mutate([&](SlowState& s) { s.paths.erase({clause, bs}); });
  }

  // --- fast state: primary-local ------------------------------------------
  void set_location(UeId ue, UeLocation loc) { locations_[ue] = loc; }
  void clear_location(UeId ue) { locations_.erase(ue); }
  [[nodiscard]] std::optional<UeLocation> location(UeId ue) const {
    const UeLocation* loc = locations_.find(ue);
    if (loc == nullptr) return std::nullopt;
    return *loc;
  }
  [[nodiscard]] std::size_t attached_ues() const { return locations_.size(); }
  // Iterates the location map (fleet partition audits / rebuilds).  `fn`
  // must not mutate the store; collect first, then write.
  template <typename Fn>
  void for_each_location(Fn&& fn) const {
    locations_.for_each([&](UeId ue, const UeLocation& loc) { fn(ue, loc); });
  }

  void reserve_ues(std::size_t n) {
    locations_.reserve(n);
    for (auto& s : slow_) s.profiles.reserve(n);
  }

  // --- failover -------------------------------------------------------------
  // Kills the primary replica and promotes the next one.  The slow state
  // survives by replication; the location map is cleared and must be
  // rebuilt via rebuild_locations().
  void fail_primary() {
    if (slow_.size() < 2)
      throw std::logic_error("ControlStore: no replica to promote");
    slow_.erase(slow_.begin());
    locations_.clear();
  }

  // New primary repopulates locations by querying local agents: `query`
  // yields each base station's attached (UE, local id) pairs.
  void rebuild_locations(
      const std::function<void(
          const std::function<void(UeId, UeLocation)>&)>& query) {
    locations_.clear();
    query([this](UeId ue, UeLocation loc) { locations_[ue] = loc; });
  }

  [[nodiscard]] std::size_t replica_count() const { return slow_.size(); }
  [[nodiscard]] std::uint64_t version() const { return primary().version; }

  // Verification hook: all replicas hold identical slow state versions.
  [[nodiscard]] bool replicas_consistent() const {
    for (const auto& s : slow_)
      if (s.version != slow_.front().version ||
          s.profiles.size() != slow_.front().profiles.size() ||
          s.paths.size() != slow_.front().paths.size())
        return false;
    return true;
  }

  // Resident footprint of the whole store / of what one primary actually
  // serves from (fast state + one slow replica); the bench reports both.
  [[nodiscard]] std::size_t bytes_resident() const {
    std::size_t total = locations_.bytes_resident();
    for (const auto& s : slow_) total += s.bytes_resident();
    return total;
  }
  [[nodiscard]] std::size_t primary_bytes_resident() const {
    return locations_.bytes_resident() + primary().bytes_resident();
  }

 private:
  [[nodiscard]] const SlowState& primary() const SC_LIFETIMEBOUND {
    return slow_.front();
  }

  void mutate(const std::function<void(SlowState&)>& fn) {
    // Synchronous replication: the write hits every replica, then the
    // version is bumped everywhere (strong consistency is affordable
    // because this state changes slowly -- section 5.2).
    for (auto& s : slow_) {
      fn(s);
      ++s.version;
    }
  }

  std::vector<SlowState> slow_;
  mem::SlabMap<UeId, UeLocation> locations_;
};

}  // namespace softcell
