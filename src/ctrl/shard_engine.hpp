// ShardEngine: the per-shard half of the partitioned controller brain.
//
// The legacy Controller owns two kinds of state with very different
// sharing behaviour:
//   * per-UE state -- subscriber profiles, locations, and the classifiers
//     compiled from them.  Requests for a UE always arrive on its owning
//     shard (shard(ue) = splitmix64(ue) % N), so this state never needs a
//     cross-shard lock;
//   * shared core state -- the (clause, bs) policy paths, the m2m
//     half-paths, the tag namespace and the core/gateway switch rows
//     behind them.  Every shard's flows traverse these.
//
// A ShardEngine owns exactly the first kind: a replicated ControlStore
// slice holding this shard's profiles and locations, plus the policy
// snapshot pointer.  Classifier compilation resolves path tags through the
// core Controller's path_tag() (the second kind's owner), which takes only
// the core's path-map leaf lock -- never the lock Algorithm 1 installs
// under -- so the shard-side read path does not wait behind an install.
//
// Thread safety: all methods are safe from any thread; a shard's own
// SharedMutex serializes them.  Different ShardEngines never share state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/store.hpp"
#include "policy/policy.hpp"
#include "util/annotations.hpp"

namespace softcell {

class ShardEngine {
 public:
  ShardEngine(std::shared_ptr<const ServicePolicy> policy,
              std::size_t store_replicas);

  // --- per-UE state (mirrors the legacy Controller entry points) ------------
  void provision_subscriber(UeId ue, const SubscriberProfile& profile)
      SC_EXCLUDES(mu_);
  void attach_ue(UeId ue, std::uint32_t bs, LocalUeId local)
      SC_EXCLUDES(mu_);
  void detach_ue(UeId ue) SC_EXCLUDES(mu_);
  void update_location(UeId ue, std::uint32_t bs, LocalUeId local)
      SC_EXCLUDES(mu_);
  [[nodiscard]] std::optional<UeLocation> ue_location(UeId ue) const
      SC_EXCLUDES(mu_);

  // Compiles the UE's packet classifiers, resolving tags through
  // core.path_tag() instead of a store path map.
  [[nodiscard]] std::vector<PacketClassifier> fetch_classifiers(
      UeId ue, std::uint32_t bs, const Controller& core) const
      SC_EXCLUDES(mu_);

  // RCU policy swap (same contract as Controller::set_policy).
  void set_policy(std::shared_ptr<const ServicePolicy> policy)
      SC_EXCLUDES(mu_);

  // --- failover (per-shard slice of the legacy store protocol) --------------
  void fail_primary_replica() SC_EXCLUDES(mu_);
  void rebuild_locations(
      const std::function<void(
          const std::function<void(UeId, UeLocation)>&)>& query)
      SC_EXCLUDES(mu_);

  // --- fingerprint fold-ins (see Controller::state_fingerprint) -------------
  // Slow-state writes this shard's store absorbed (== the store's replica
  // version; location changes are fast state and do not count, exactly as
  // in the legacy store).
  [[nodiscard]] std::uint64_t store_writes() const SC_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t attached_ues() const SC_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t store_bytes_resident() const SC_EXCLUDES(mu_);
  // Primary-replica bytes only (locations + primary slow state), the same
  // accounting Controller::memory_footprint().store_primary uses, so the
  // scale bench's bytes/UE stays comparable across brain modes.
  [[nodiscard]] std::uint64_t store_primary_bytes_resident() const
      SC_EXCLUDES(mu_);

 private:
  std::shared_ptr<const ServicePolicy> policy_ SC_GUARDED_BY(mu_);
  mutable sc::SharedMutex mu_;
  ControlStore store_ SC_GUARDED_BY(mu_);
};

}  // namespace softcell
