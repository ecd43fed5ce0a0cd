// softcell::cluster -- a replicated controller fleet (paper section 5.2,
// generalized from one controller to N).
//
// The fleet runs N full Controller replicas and splits responsibility two
// ways, mirroring the paper's slow/fast state split:
//
//   * Slow state (subscriber profiles, policy-path installs) is replicated
//     through an ordered log: every write is applied synchronously to every
//     reachable replica, and replicas that were dead, partitioned or lagged
//     replay the suffix they missed when they come back.  Controllers are
//     deterministic, so replicas that applied the same log prefix hold
//     byte-identical engines and allocated the same tags -- the fleet
//     asserts that on every path install.
//
//   * Fast state (UE locations) is NOT replicated.  The UE-id space is
//     split into partitions by the serving base station
//     (partition_of_bs()); each partition maps to a replica by rendezvous
//     (highest-random-weight) hashing over the currently eligible members,
//     and only the partition's lease holder stores locations for it.  When
//     a leader crashes, its partitions are taken over and rebuilt by
//     re-querying the base-station agents (the fail_primary()/rebuild path
//     of ctrl/store.hpp lifted to fleet membership).
//
// Leases are logical-clock based -- the fleet keeps a u64 clock ticked once
// per operation, never wall time, so chaos runs stay deterministic.  A
// lease is renewed whenever its owner serves an operation (sticky
// ownership).  If the holder is unreachable and the lease has not expired,
// the fleet "waits out" the lease by advancing the clock to its expiry
// (stats().lease_waits counts those), then takes over: epoch bump, new
// owner by rendezvous hash, partition rebuilt from agent truth.
//
// Thread safety: one sc::Mutex serializes the whole fleet (membership,
// leases, log, and -- transitively -- every member controller; the fleet
// always acquires its own lock before any controller lock, never the
// reverse).  Const entry points still renew leases, so the guarded state
// is mutable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/controller.hpp"
#include "telemetry/registry.hpp"
#include "topo/cellular.hpp"
#include "util/annotations.hpp"

namespace softcell::cluster {

// splitmix64 finalizer: the avalanche stage both hash helpers share.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Partition key: the SERVING BASE STATION, not the UE id -- so mobility
// genuinely moves UEs across ownership ranges and cross-controller handoff
// is exercised by every handoff that crosses a partition boundary.
[[nodiscard]] constexpr std::uint32_t partition_of_bs(
    std::uint32_t bs, std::uint32_t partitions) noexcept {
  return static_cast<std::uint32_t>(
      mix64(0x50F7CE11C1u ^ (std::uint64_t{bs} + 0x9E3779B97F4A7C15ull)) %
      partitions);
}

// Rendezvous (highest-random-weight) weight of `replica` for `partition`.
// Ownership goes to the eligible replica with the highest weight, which
// gives minimal movement: when a member dies, only ITS partitions move.
[[nodiscard]] constexpr std::uint64_t hrw_weight(std::uint32_t partition,
                                                 std::size_t replica) noexcept {
  return mix64((std::uint64_t{partition} << 24) ^
               (static_cast<std::uint64_t>(replica) + 1) *
                   0x9E3779B97F4A7C15ull);
}

struct FleetOptions {
  std::size_t replicas = 3;
  std::uint32_t partitions = 16;
  // Lease length in logical ticks (the fleet clock advances once per fleet
  // operation; there is no wall clock anywhere).
  std::uint64_t lease_ticks = 64;
  ControllerOptions controller;
};

// Monotonic fleet-level counters, also published to the telemetry registry
// under cluster.* (per-replica metrics carry a cluster.replica<i>. label
// prefix).
struct FleetStats {
  std::uint64_t takeovers = 0;         // lease reassignments (epoch bumps)
  std::uint64_t lease_renewals = 0;    // sticky renewals on use
  std::uint64_t lease_waits = 0;       // clock advanced past a stale lease
  std::uint64_t cross_handoffs = 0;    // UE moved between owner replicas
  std::uint64_t rebuilt_locations = 0; // locations restored via agent query
  std::uint64_t replayed_ops = 0;      // log ops applied during catch-up
};

class ControllerFleet final : public ControlPlane {
 public:
  // Agent-location requery hook: invoked on takeover/rebuild; must call the
  // sink once per (UE, location) attached at any base station (the sim
  // wires this to LocalAgent::enumerate_ues over every agent).
  using LocationQuery = std::function<void(
      const std::function<void(UeId, UeLocation)>&)>;

  ControllerFleet(const CellularTopology& topo, ServicePolicy policy,
                  FleetOptions options = {});

  void set_location_query(LocationQuery query) SC_EXCLUDES(mu_);

  // --- ControlPlane --------------------------------------------------------
  void provision_subscriber(UeId ue, const SubscriberProfile& profile)
      override SC_EXCLUDES(mu_);
  void attach_ue(UeId ue, std::uint32_t bs, LocalUeId local)
      override SC_EXCLUDES(mu_);
  void detach_ue(UeId ue) override SC_EXCLUDES(mu_);
  void update_location(UeId ue, std::uint32_t bs, LocalUeId local)
      override SC_EXCLUDES(mu_);
  [[nodiscard]] std::optional<UeLocation> ue_location(UeId ue) const
      override SC_EXCLUDES(mu_);
  [[nodiscard]] std::vector<PacketClassifier> fetch_classifiers(
      UeId ue, std::uint32_t bs) const override SC_EXCLUDES(mu_);
  PolicyTag request_policy_path(std::uint32_t bs, ClauseId clause)
      override SC_EXCLUDES(mu_);
  PolicyTag request_m2m_path(std::uint32_t src_bs, std::uint32_t dst_bs,
                             ClauseId clause) override SC_EXCLUDES(mu_);
  [[nodiscard]] std::vector<NodeId> select_instances(
      std::uint32_t bs, ClauseId clause) const override SC_EXCLUDES(mu_);

  // --- membership & fault injection ----------------------------------------
  // Kills a replica.  A clean crash (revoke_leases = true) loses its fast
  // state and revokes its leases so takeover is immediate.  The chaos
  // sabotage mode passes false: the member becomes a zombie that keeps its
  // (now stale) location map and its leases -- successors must wait the
  // lease out, and the exactly-one-owner audit sees two holders.
  void kill(std::size_t replica, bool revoke_leases = true) SC_EXCLUDES(mu_);
  // Brings a dead replica back: replays the missed log suffix; owns no
  // partition until a takeover assigns it one.
  void restart(std::size_t replica) SC_EXCLUDES(mu_);
  // Split brain: the member stays up but is unreachable -- ineligible for
  // ownership, skipped by slow-state replication.
  void isolate(std::size_t replica) SC_EXCLUDES(mu_);
  // Heals an isolation: replays the log, drops the stale location map, and
  // rebuilds the partitions the member still owns from agent truth.
  void heal(std::size_t replica) SC_EXCLUDES(mu_);
  // Store lag: slow-state replication to this member stalls (its log
  // cursor freezes); it keeps serving fast-state ops for partitions it
  // owns but is skipped for slow-state reads.  Un-lagging replays.
  void set_store_lag(std::size_t replica, bool lagged) SC_EXCLUDES(mu_);
  // Force-expires a partition's lease (stale-lease injection): the next
  // operation on the partition must re-acquire with an epoch bump.
  void force_expire(std::uint32_t partition) SC_EXCLUDES(mu_);

  [[nodiscard]] bool is_alive(std::size_t replica) const SC_EXCLUDES(mu_);
  [[nodiscard]] bool is_isolated(std::size_t replica) const SC_EXCLUDES(mu_);
  [[nodiscard]] bool is_lagged(std::size_t replica) const SC_EXCLUDES(mu_);
  // Usable = alive, reachable, caught up (eligible for slow-state serving).
  [[nodiscard]] bool is_usable(std::size_t replica) const SC_EXCLUDES(mu_);
  [[nodiscard]] std::size_t alive_count() const SC_EXCLUDES(mu_);
  [[nodiscard]] std::size_t usable_count() const SC_EXCLUDES(mu_);

  // --- recovery ------------------------------------------------------------
  // Quiesce-time convergence: heal every isolation, flush every lag window,
  // and reassign every partition whose lease holder is dead or revoked
  // (rebuilding from agent truth).  After settle() the exactly-one-owner
  // audit must hold on a sabotage-free fleet.
  void settle() SC_EXCLUDES(mu_);
  // The single-controller fail_primary()/rebuild drill applied to every
  // reachable member: each loses its primary store replica (slow state
  // survives by store replication), then re-queries agents for the
  // partitions it owns.
  void fail_primary_and_recover() SC_EXCLUDES(mu_);

  // --- audits (chaos invariant 6) -------------------------------------------
  // For every UE: exactly one member store -- dead and zombie members
  // included -- holds its location, and that member is the partition's
  // current lease holder.  Returns one message per violation.
  [[nodiscard]] std::vector<std::string> audit_exactly_one_owner(
      const std::vector<UeId>& ues) const SC_EXCLUDES(mu_);
  // Every usable member replayed the same log: engine rule/tag totals and
  // store versions match the forwarding replica's.  nullopt = converged.
  [[nodiscard]] std::optional<std::string> audit_engines_converged() const
      SC_EXCLUDES(mu_);

  // --- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] std::uint32_t partition_count() const {
    return options_.partitions;
  }
  [[nodiscard]] Controller& replica(std::size_t i) { return *replicas_.at(i); }
  [[nodiscard]] const Controller& replica(std::size_t i) const {
    return *replicas_.at(i);
  }
  // The engine packet forwarding reads rules from: the first usable
  // member's.  All usable members hold identical engines (see
  // audit_engines_converged), so WHICH one is immaterial -- but the
  // returned reference is only stable until membership changes.
  [[nodiscard]] const AggregationEngine& forwarding_engine() const
      SC_EXCLUDES(mu_);
  [[nodiscard]] std::size_t forwarding_replica() const SC_EXCLUDES(mu_);
  // Current lease holder of a base station's partition (no side effects:
  // does not renew or take over).
  [[nodiscard]] std::optional<std::size_t> owner_of_bs(std::uint32_t bs) const
      SC_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t lease_epoch(std::uint32_t partition) const
      SC_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t logical_clock() const SC_EXCLUDES(mu_);
  [[nodiscard]] FleetStats stats() const SC_EXCLUDES(mu_);

 private:
  struct Member {
    bool alive = true;
    bool isolated = false;
    bool lagged = false;
    std::size_t cursor = 0;  // next log index to apply
  };
  struct Lease {
    std::optional<std::size_t> owner;
    std::uint64_t epoch = 0;
    std::uint64_t expires_at = 0;
    bool revoked = false;
  };
  struct LogOp {
    enum class Kind : std::uint8_t { kProvision, kPath, kM2m };
    Kind kind = Kind::kProvision;
    UeId ue{};
    SubscriberProfile profile{};
    std::uint32_t a = 0;  // bs (kPath) / src_bs (kM2m)
    std::uint32_t b = 0;  // dst_bs (kM2m)
    ClauseId clause{};
  };

  void tick_locked() const SC_REQUIRES(mu_) { ++clock_; }
  [[nodiscard]] std::uint32_t partition_of_locked(std::uint32_t bs) const
      SC_REQUIRES(mu_) {
    return partition_of_bs(bs, options_.partitions);
  }
  [[nodiscard]] bool eligible_locked(std::size_t r) const SC_REQUIRES(mu_) {
    return members_[r].alive && !members_[r].isolated;
  }
  [[nodiscard]] bool usable_locked(std::size_t r) const SC_REQUIRES(mu_) {
    return eligible_locked(r) && !members_[r].lagged;
  }
  [[nodiscard]] std::size_t preferred_owner_locked(std::uint32_t partition)
      const SC_REQUIRES(mu_);
  [[nodiscard]] std::size_t forwarding_replica_locked() const
      SC_REQUIRES(mu_);
  // Returns the partition's current owner, renewing its lease -- or runs
  // the takeover protocol (wait out an unexpired stale lease, epoch bump,
  // strip the previous reachable owner, rebuild from agent truth).
  std::size_t ensure_owner_locked(std::uint32_t partition) const
      SC_REQUIRES(mu_);
  void strip_partition_locked(std::size_t r, std::uint32_t partition) const
      SC_REQUIRES(mu_);
  void rebuild_partition_locked(std::size_t r, std::uint32_t partition) const
      SC_REQUIRES(mu_);
  void wipe_locations_locked(std::size_t r) SC_REQUIRES(mu_);
  void replay_locked(std::size_t r) SC_REQUIRES(mu_);
  void heal_locked(std::size_t r) SC_REQUIRES(mu_);
  // Appends an op and applies it to every usable member; returns the
  // (replica-agreed) tag for path ops.
  std::optional<PolicyTag> replicate_locked(LogOp op) SC_REQUIRES(mu_);
  std::optional<PolicyTag> apply_op_locked(std::size_t r, const LogOp& op)
      SC_REQUIRES(mu_);
  void check_replica_locked(std::size_t r) const SC_REQUIRES(mu_);
  void publish(telemetry::MetricSink& sink) const SC_EXCLUDES(mu_);

  FleetOptions options_;
  // unique_ptr propagates const shallowly, so const entry points (which
  // still renew leases / rebuild partitions) can drive member controllers
  // without a const_cast.
  std::vector<std::unique_ptr<Controller>> replicas_;

  mutable sc::Mutex mu_;
  mutable std::vector<Member> members_ SC_GUARDED_BY(mu_);
  mutable std::vector<Lease> leases_ SC_GUARDED_BY(mu_);
  std::vector<LogOp> log_ SC_GUARDED_BY(mu_);
  std::unordered_set<UeId> provisioned_ SC_GUARDED_BY(mu_);
  // UE -> serving bs index, maintained by attach/update/rebuild; tells a
  // handoff which partition (and therefore which owner) to clear.
  mutable std::unordered_map<UeId, std::uint32_t> ue_bs_ SC_GUARDED_BY(mu_);
  mutable std::uint64_t clock_ SC_GUARDED_BY(mu_) = 0;
  LocationQuery query_ SC_GUARDED_BY(mu_);
  mutable FleetStats stats_ SC_GUARDED_BY(mu_);
  // RAII metric registration; declared last so the collector dies before
  // anything it reads (see runtime/shard_brain.hpp for the idiom).
  telemetry::Registry::CollectorHandle collector_;
};

}  // namespace softcell::cluster
