// The SoftCell central controller.
//
// Responsibilities (sections 2.1, 4.2, 5):
//   * track subscriber attributes and UE locations (via the ControlStore);
//   * compile per-UE packet classifiers from the service policy, for local
//     agents to cache;
//   * on a local agent's path request, select middlebox instances, expand
//     the policy path, and install it through the aggregation engine in both
//     directions (one shared path per (clause, base station));
//   * support consistent path migration (install-new / flip-tag / drain-old,
//     the version-tag construction of consistent updates);
//   * survive primary failure: slow state by replication, UE locations by
//     re-querying local agents.
//
// Thread-safety contract (the re-entrant API the sharded runtime builds
// on, see src/runtime/):
//   * Every mutating entry point takes the controller's writer lock; the
//     read-mostly hot paths (fetch_classifiers, ue_location,
//     select_instances, instance_load, path_installs) take the reader
//     lock; path_tag/m2m_tag take only the path-map leaf lock.  All of
//     them may be called concurrently from any thread.
//   * The service policy is held as an immutable shared snapshot
//     (shared_ptr<const ServicePolicy>).  policy() returns a reference
//     into the *current* snapshot -- valid until the next set_policy();
//     concurrent readers that must outlive an update should hold
//     policy_snapshot() instead.
//   * engine(), store(), topology(), routes() return references to
//     internals and are NOT independently synchronized: reading them while
//     another thread mutates the controller is a race.  They exist for the
//     single-threaded simulation harness and post-drain introspection; in
//     the runtime, only touch them while no worker is processing requests
//     for this controller (shard).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/store.hpp"
#include "mem/slab_map.hpp"
#include "policy/policy.hpp"
#include "topo/cellular.hpp"
#include "topo/routing.hpp"
#include "util/annotations.hpp"

namespace softcell {

// How the controller picks middlebox instances for a (clause, bs) path.
enum class InstancePlacement {
  kPodLocal,       // always the instance in the UE's pod
  kGatewayHeavy,   // firewalls (type 0) near the gateway, rest pod-local
  kCoreOnly,       // always a core-layer instance (hashed by bs)
  kLeastLoaded,    // among {pod-local, both core instances}, fewest paths
};

struct ControllerOptions {
  InstancePlacement placement = InstancePlacement::kGatewayHeavy;
  std::size_t store_replicas = 3;
  EngineOptions engine;
};

class Controller : public ControlPlane {
 public:
  Controller(const CellularTopology& topo, ServicePolicy policy,
             ControllerOptions options = {});
  // Shares one immutable policy snapshot with its peers (the ShardBrain
  // core and its shard engines, the fleet replicas).
  Controller(const CellularTopology& topo,
             std::shared_ptr<const ServicePolicy> policy,
             ControllerOptions options = {});

  // --- provisioning (ControlPlane) ------------------------------------------
  void provision_subscriber(UeId ue, const SubscriberProfile& profile)
      override SC_EXCLUDES(mu_);

  // --- UE lifecycle (ControlPlane, called by local agents) ------------------
  // Registers the UE at `bs` with the agent-assigned local id.
  void attach_ue(UeId ue, std::uint32_t bs, LocalUeId local)
      override SC_EXCLUDES(mu_);
  void detach_ue(UeId ue) override SC_EXCLUDES(mu_);
  void update_location(UeId ue, std::uint32_t bs, LocalUeId local)
      override SC_EXCLUDES(mu_);
  [[nodiscard]] std::optional<UeLocation> ue_location(UeId ue) const
      override SC_EXCLUDES(mu_);

  // Compiles the packet classifiers for a UE at `bs` (read-mostly hot path;
  // this is what Cbench-style load hammers).
  [[nodiscard]] std::vector<PacketClassifier> fetch_classifiers(
      UeId ue, std::uint32_t bs) const override SC_EXCLUDES(mu_);

  // Ensures the (clause, bs) policy path exists and returns its tag.
  PolicyTag request_policy_path(std::uint32_t bs, ClauseId clause)
      override SC_EXCLUDES(mu_);

  // Batched variant: installs every missing (bs, clause) path under one
  // writer-lock acquisition, processing requests sorted by (bs, clause) so
  // consecutive installs share an origin prefix and hit the engine's
  // memoized Step-1 scores (see DESIGN.md "Aggregation fast path").
  // Returns the tags in the order of `requests` (duplicates allowed).
  struct PathRequest {
    std::uint32_t bs = 0;
    ClauseId clause{};
  };
  std::vector<PolicyTag> request_policy_paths(
      std::span<const PathRequest> requests) SC_EXCLUDES(mu_);

  // Mobile-to-mobile half-path (section 7): from `src_bs` through the
  // clause's middleboxes straight to `dst_bs`, no gateway detour.  Returns
  // the transit tag the source edge must embed.  One half-path per
  // direction; the reverse direction is a separate request with the roles
  // swapped.
  PolicyTag request_m2m_path(std::uint32_t src_bs, std::uint32_t dst_bs,
                             ClauseId clause) override SC_EXCLUDES(mu_);

  // --- consistent updates (section 3.2 / Reitblatt et al.) ------------------
  // Re-installs the (clause, bs) path under a fresh tag and returns
  // {old, new}.  Packets tagged old keep seeing exactly the old rules,
  // packets tagged new exactly the new ones -- per-packet consistency by
  // tag versioning.  Call drain_old_path() once old flows have finished.
  struct Migration {
    PolicyTag old_tag;
    PolicyTag new_tag;
  };
  Migration migrate_path(std::uint32_t bs, ClauseId clause) SC_EXCLUDES(mu_);
  void drain_old_path(std::uint32_t bs, ClauseId clause, PolicyTag old_tag)
      SC_EXCLUDES(mu_);

  // Classifier push channel: invoked whenever the tag of an installed
  // (clause, bs) path changes, so local agents can update their caches "at
  // the behest of the controller" (section 4.2).
  using ClassifierListener =
      std::function<void(std::uint32_t bs, ClauseId, PolicyTag)>;
  void set_classifier_listener(ClassifierListener listener)
      SC_EXCLUDES(mu_) {
    sc::WriteLock lock(mu_);
    listener_ = std::move(listener);
  }

  // --- offline re-optimization (section 3.2 discussion) ----------------------
  // Rebuilds every installed path from scratch in clause-major order -- the
  // offline counterpart of the online Algorithm 1 for "extremely
  // constrained environments".  Requires no draining migrations.  Tags may
  // change; updated classifiers are pushed through the listener.  Intended
  // for maintenance windows: in-flight flows pinned to old tags break.
  struct RecompactResult {
    std::size_t rules_before = 0;
    std::size_t rules_after = 0;
    std::size_t tags_before = 0;
    std::size_t tags_after = 0;
  };
  RecompactResult recompact() SC_EXCLUDES(mu_);

  // --- failover --------------------------------------------------------------
  // Fails the primary store replica; locations must be rebuilt afterwards.
  void fail_primary_replica() SC_EXCLUDES(mu_);
  // Rebuilds UE locations by querying agents (see ControlStore).
  void rebuild_locations(
      const std::function<void(
          const std::function<void(UeId, UeLocation)>&)>& query)
      SC_EXCLUDES(mu_);

  // --- policy snapshot (RCU-style; see runtime/snapshot.hpp) ----------------
  // Swaps in a new immutable policy.  Installed paths keep their clause
  // ids, so the new policy must keep existing ClauseIds stable (append or
  // re-prioritize clauses; use recompact() after destructive edits).
  void set_policy(std::shared_ptr<const ServicePolicy> policy)
      SC_EXCLUDES(mu_);
  [[nodiscard]] std::shared_ptr<const ServicePolicy> policy_snapshot() const
      SC_EXCLUDES(mu_);

  // --- introspection ----------------------------------------------------------
  // Audit note (re-entrant API): engine()/store()/policy() return
  // references into live controller state -- see the thread-safety
  // contract at the top of this header.  These three accessors are the
  // documented SC_NO_THREAD_SAFETY_ANALYSIS allowlist for ctrl/ (DESIGN.md
  // section 12): they hand out references to mu_-guarded state for the
  // single-threaded simulation harness and post-drain introspection, and
  // the capability analysis cannot express "caller promises quiescence".
  [[nodiscard]] const AggregationEngine& engine() const
      SC_NO_THREAD_SAFETY_ANALYSIS {
    return engine_;
  }
  // The mutable overload delegates to the const escape above so it does
  // not count against the allowlist budget itself.
  [[nodiscard]] AggregationEngine& engine() {
    return const_cast<AggregationEngine&>(std::as_const(*this).engine());
  }
  [[nodiscard]] const ServicePolicy& policy() const
      SC_NO_THREAD_SAFETY_ANALYSIS {
    // The returned reference stays valid until the next set_policy() (the
    // controller's policy_ shared_ptr keeps the snapshot alive).
    return *policy_;
  }
  [[nodiscard]] const CellularTopology& topology() const { return *topo_; }
  [[nodiscard]] const RoutingOracle& routes() const { return routes_; }
  [[nodiscard]] const ControlStore& store() const
      SC_NO_THREAD_SAFETY_ANALYSIS {
    return store_;
  }
  [[nodiscard]] std::uint64_t path_installs() const SC_EXCLUDES(mu_) {
    sc::ReadLock lock(mu_);
    return path_installs_;
  }
  [[nodiscard]] std::uint64_t instance_load(NodeId mb) const
      SC_EXCLUDES(mu_) {
    sc::ReadLock lock(mu_);
    return instance_load_locked(mb);
  }
  // Snapshot of the aggregation engine's hot-path counters (see AggPerf).
  [[nodiscard]] AggPerf agg_perf() const SC_EXCLUDES(mu_) {
    sc::ReadLock lock(mu_);
    return engine_.perf();
  }

  // Resident footprint of the controller's own per-UE / per-path state, in
  // bytes (million-UE bench input; see DESIGN.md section 15).  `store_primary`
  // is what one serving primary holds (location map + one slow replica);
  // `store_total` adds the standby slow replicas; `path_maps` covers the
  // installed/m2m/hint/drain/load/selection maps.
  struct MemoryFootprint {
    std::uint64_t store_primary = 0;
    std::uint64_t store_total = 0;
    std::uint64_t path_maps = 0;
  };
  [[nodiscard]] MemoryFootprint memory_footprint() const SC_EXCLUDES(mu_);

  // Order-insensitive hash of the externally observable control-plane
  // state (installed paths and their tags, engine table sizes, store
  // versions, attached UEs).  Two controllers that processed the same
  // per-shard request sequence -- regardless of worker count -- hash
  // identically; the runtime stress tests assert exactly that.
  //
  // The fold-in parameters exist for the shard-brain partition (DESIGN.md
  // section 16): there the per-UE store writes and attachments live on the
  // ShardEngines' stores, not this controller's, so the brain passes their
  // sums and the fingerprint comes out bit-identical to a standalone
  // Controller run (whose one store saw every write).  The zero defaults
  // are that standalone meaning.
  [[nodiscard]] std::uint64_t state_fingerprint(
      std::uint64_t fold_store_writes = 0,
      std::uint64_t fold_attached = 0) const SC_EXCLUDES(mu_);

  // Tag lookups for shard-side readers (ShardEngine::fetch_classifiers,
  // ShardBrain's warm-hit checks): the installed (clause, bs) path's tag
  // and the (clause, src, dst) m2m half-path's tag, nullopt if absent.
  // Each takes only paths_mu_, shared -- never mu_ -- so readers do not
  // wait behind an Algorithm-1 install, which runs under mu_ alone.  A
  // reader racing recompact() may see a key absent until it is reinstalled.
  [[nodiscard]] std::optional<PolicyTag> path_tag(ClauseId clause,
                                                  std::uint32_t bs) const
      SC_EXCLUDES(paths_mu_);
  [[nodiscard]] std::optional<PolicyTag> m2m_tag(ClauseId clause,
                                                 std::uint32_t src_bs,
                                                 std::uint32_t dst_bs) const
      SC_EXCLUDES(paths_mu_);

  // The middlebox instances serving the (clause, bs) path.  Once a path is
  // installed its selection is memoized, so mobility and verification always
  // see the instances actually in use (essential for kLeastLoaded, whose
  // fresh selections drift with load).  Audit fix: this used to read the
  // memo map unlocked -- racy against concurrent installs; it now takes
  // the reader lock (internal callers already under the writer lock use
  // the _locked variant).
  [[nodiscard]] std::vector<NodeId> select_instances(
      std::uint32_t bs, ClauseId clause) const override SC_EXCLUDES(mu_);

 private:
  struct InstalledPath {
    PolicyTag tag;
    PathId up;
    PathId down;
  };

  // Installs (clause, bs) under a fresh-or-reused tag; writer lock held.
  InstalledPath install_path_locked(std::uint32_t bs, ClauseId clause,
                                    std::optional<PolicyTag> hint)
      SC_REQUIRES(mu_);
  PolicyTag request_policy_path_locked(std::uint32_t bs, ClauseId clause)
      SC_REQUIRES(mu_);
  [[nodiscard]] std::vector<NodeId> select_instances_locked(
      std::uint32_t bs, ClauseId clause) const SC_REQUIRES_SHARED(mu_);
  [[nodiscard]] std::uint64_t instance_load_locked(NodeId mb) const
      SC_REQUIRES_SHARED(mu_) {
    const std::uint64_t* load = instance_load_.find(mb);
    return load == nullptr ? 0 : *load;
  }

  const CellularTopology* topo_;  // immutable topology, never rebound
  std::shared_ptr<const ServicePolicy> policy_ SC_GUARDED_BY(mu_);
  ControllerOptions options_;     // set at construction, read-only after
  // Logically const but NOT immutable: RoutingOracle memoizes BFS trees
  // lazily inside const methods.  Safe here because every use is under the
  // exclusive mu_ writer lock (install_path_locked & friends) or from the
  // single-threaded simulation harness via routes().
  RoutingOracle routes_;
  AggregationEngine engine_ SC_GUARDED_BY(mu_);
  ControlStore store_ SC_GUARDED_BY(mu_);

  mutable sc::SharedMutex mu_;
  // Leaf lock over the two installed-path maps.  Writers already hold mu_
  // and take paths_mu_ exclusively only around the O(1) map writes, never
  // across install_path_locked, the engine op sink or the listener.
  mutable sc::SharedMutex paths_mu_;
  mem::SlabMap<SlowState::PathKey, InstalledPath, SlowState::PathKeyHash>
      installed_ SC_GUARDED_BY(paths_mu_);
  struct M2mKey {
    ClauseId clause;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    friend bool operator==(const M2mKey&, const M2mKey&) = default;
  };
  struct M2mKeyHash {
    size_t operator()(const M2mKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.clause.value()) << 40) ^
          (static_cast<std::uint64_t>(k.src) << 20) ^ k.dst);
    }
  };
  mem::SlabMap<M2mKey, PolicyTag, M2mKeyHash> m2m_installed_
      SC_GUARDED_BY(paths_mu_);
  // Per-clause tag hints so new base stations try the clause's tag first.
  mem::SlabMap<ClauseId, PolicyTag> clause_hints_ SC_GUARDED_BY(mu_);
  // Old path versions kept alive while their flows drain (migrate_path).
  struct DrainKey {
    SlowState::PathKey key;
    PolicyTag tag;
    friend bool operator==(const DrainKey&, const DrainKey&) = default;
  };
  struct DrainKeyHash {
    size_t operator()(const DrainKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.key.clause.value()) << 32) ^
          (static_cast<std::uint64_t>(k.key.bs) << 12) ^ k.tag.value());
    }
  };
  mem::SlabMap<DrainKey, InstalledPath, DrainKeyHash> draining_
      SC_GUARDED_BY(mu_);
  // Paths assigned per middlebox node (kLeastLoaded placement input).
  mem::SlabMap<NodeId, std::uint64_t> instance_load_ SC_GUARDED_BY(mu_);
  // Memoized instance selection per installed (clause, bs) path.  Written
  // only by install_path_locked (writer lock); readers see an immutable map
  // under the shared lock.
  mutable mem::SlabMap<SlowState::PathKey, std::vector<NodeId>,
                       SlowState::PathKeyHash>
      selected_ SC_GUARDED_BY(mu_);
  ClassifierListener listener_ SC_GUARDED_BY(mu_);
  std::uint64_t path_installs_ SC_GUARDED_BY(mu_) = 0;
};

}  // namespace softcell
