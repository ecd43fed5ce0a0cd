#include "cluster/fleet.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace softcell::cluster {

ControllerFleet::ControllerFleet(const CellularTopology& topo,
                                 ServicePolicy policy, FleetOptions options)
    : options_(options) {
  if (options_.replicas == 0)
    throw std::invalid_argument("ControllerFleet: need at least one replica");
  if (options_.partitions == 0)
    throw std::invalid_argument("ControllerFleet: need at least one partition");
  if (options_.lease_ticks == 0)
    throw std::invalid_argument("ControllerFleet: lease_ticks must be > 0");
  // One immutable policy snapshot shared by every member, exactly like the
  // sharded runtime: replicas must compile identical classifiers and paths.
  auto snapshot = std::make_shared<const ServicePolicy>(std::move(policy));
  replicas_.reserve(options_.replicas);
  for (std::size_t i = 0; i < options_.replicas; ++i)
    replicas_.push_back(
        std::make_unique<Controller>(topo, snapshot, options_.controller));
  members_.resize(options_.replicas);
  leases_.resize(options_.partitions);
  collector_ = telemetry::Registry::global().add_collector(
      [this](telemetry::MetricSink& sink) { publish(sink); });
}

void ControllerFleet::set_location_query(LocationQuery query) {
  sc::LockGuard lock(mu_);
  query_ = std::move(query);
}

// --- internal helpers --------------------------------------------------------

void ControllerFleet::check_replica_locked(std::size_t r) const {
  if (r >= replicas_.size())
    throw std::out_of_range("ControllerFleet: replica index out of range");
}

std::size_t ControllerFleet::preferred_owner_locked(
    std::uint32_t partition) const {
  std::optional<std::size_t> best;
  std::uint64_t best_weight = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!eligible_locked(r)) continue;
    const std::uint64_t w = hrw_weight(partition, r);
    if (!best || w > best_weight) {
      best = r;
      best_weight = w;
    }
  }
  if (!best)
    throw std::logic_error("ControllerFleet: no eligible owner left");
  return *best;
}

std::size_t ControllerFleet::forwarding_replica_locked() const {
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    if (usable_locked(r)) return r;
  throw std::logic_error("ControllerFleet: no usable replica to forward from");
}

std::size_t ControllerFleet::ensure_owner_locked(
    std::uint32_t partition) const {
  Lease& l = leases_[partition];
  if (l.owner && !l.revoked && eligible_locked(*l.owner)) {
    // Sticky ownership: serving an operation renews the lease, even when
    // the logical expiry has already passed -- only an unreachable or
    // revoked holder triggers a takeover.
    l.expires_at = clock_ + options_.lease_ticks;
    ++stats_.lease_renewals;
    return *l.owner;
  }
  if (l.owner && !l.revoked && clock_ <= l.expires_at) {
    // The holder is unreachable but its lease has not expired.  There is
    // no wall clock to sit out, so "waiting" is advancing the logical
    // clock past the expiry -- the deterministic cost of a crash that was
    // not cleanly revoked.
    clock_ = l.expires_at + 1;
    ++stats_.lease_waits;
  }
  const std::optional<std::size_t> prev = l.owner;
  const std::size_t next = preferred_owner_locked(partition);
  l.owner = next;
  ++l.epoch;
  l.revoked = false;
  l.expires_at = clock_ + options_.lease_ticks;
  ++stats_.takeovers;
  // A reachable previous holder (e.g. a force-expired lease) hands the
  // partition over; an unreachable one is dealt with by heal()/restart().
  if (prev && *prev != next && eligible_locked(*prev))
    strip_partition_locked(*prev, partition);
  rebuild_partition_locked(next, partition);
  return next;
}

void ControllerFleet::strip_partition_locked(std::size_t r,
                                             std::uint32_t partition) const {
  std::vector<UeId> drop;
  replicas_[r]->store().for_each_location(
      [&](UeId ue, const UeLocation& loc) {
        if (partition_of_locked(loc.bs) == partition) drop.push_back(ue);
      });
  for (const UeId ue : drop) replicas_[r]->detach_ue(ue);
}

void ControllerFleet::rebuild_partition_locked(std::size_t r,
                                               std::uint32_t partition) const {
  // Fast state is rebuilt from ground truth: re-query the base-station
  // agents (section 5.2), keeping only this partition's UEs.
  strip_partition_locked(r, partition);
  if (!query_) return;
  query_([&](UeId ue, UeLocation loc) {
    if (partition_of_locked(loc.bs) != partition) return;
    // An agent can be ahead of the fleet: a UE the fleet still places in
    // another partition has moved here, so that partition's holder must
    // forget it, as in a cross-partition update_location().
    if (const auto it = ue_bs_.find(ue); it != ue_bs_.end()) {
      const std::optional<std::size_t> prev =
          leases_[partition_of_locked(it->second)].owner;
      if (prev && *prev != r && eligible_locked(*prev))
        replicas_[*prev]->detach_ue(ue);
    }
    replicas_[r]->update_location(ue, loc.bs, loc.local);
    ue_bs_[ue] = loc.bs;
    ++stats_.rebuilt_locations;
  });
}

void ControllerFleet::wipe_locations_locked(std::size_t r) {
  replicas_[r]->rebuild_locations(
      [](const std::function<void(UeId, UeLocation)>&) {});
}

void ControllerFleet::replay_locked(std::size_t r) {
  Member& m = members_[r];
  while (m.cursor < log_.size()) {
    apply_op_locked(r, log_[m.cursor]);
    ++m.cursor;
    ++stats_.replayed_ops;
  }
}

std::optional<PolicyTag> ControllerFleet::apply_op_locked(std::size_t r,
                                                          const LogOp& op) {
  Controller& c = *replicas_[r];
  switch (op.kind) {
    case LogOp::Kind::kProvision:
      c.provision_subscriber(op.ue, op.profile);
      return std::nullopt;
    case LogOp::Kind::kPath:
      return c.request_policy_path(op.a, op.clause);
    case LogOp::Kind::kM2m:
      return c.request_m2m_path(op.a, op.b, op.clause);
  }
  return std::nullopt;
}

std::optional<PolicyTag> ControllerFleet::replicate_locked(LogOp op) {
  log_.push_back(std::move(op));
  std::optional<PolicyTag> tag;
  bool applied = false;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Member& m = members_[r];
    if (!usable_locked(r)) continue;
    if (m.cursor != log_.size() - 1)
      throw std::logic_error("ControllerFleet: usable replica fell behind");
    const auto t = apply_op_locked(r, log_.back());
    m.cursor = log_.size();
    if (t) {
      // Controllers are deterministic: identical log prefixes must have
      // allocated identical tags.  Divergence here means a replica saw a
      // different op order -- fail loudly instead of serving split state.
      if (tag && *tag != *t)
        throw std::logic_error("ControllerFleet: replica tag divergence");
      tag = t;
    }
    applied = true;
  }
  if (!applied)
    throw std::logic_error(
        "ControllerFleet: no usable replica for a slow-state write");
  return tag;
}

void ControllerFleet::heal_locked(std::size_t r) {
  Member& m = members_[r];
  if (!m.alive || !m.isolated) return;
  m.isolated = false;
  replay_locked(r);
  // Handoffs that moved UEs away during the partition left stale entries
  // in this member's location map.  Drop the whole map, then restore the
  // partitions it STILL owns (lease not revoked or reassigned) from agent
  // truth -- anything taken over in the meantime stays gone.
  wipe_locations_locked(r);
  for (std::uint32_t p = 0; p < options_.partitions; ++p)
    if (leases_[p].owner == r && !leases_[p].revoked)
      rebuild_partition_locked(r, p);
}

// --- ControlPlane ------------------------------------------------------------

void ControllerFleet::provision_subscriber(UeId ue,
                                           const SubscriberProfile& profile) {
  sc::LockGuard lock(mu_);
  tick_locked();
  LogOp op;
  op.kind = LogOp::Kind::kProvision;
  op.ue = ue;
  op.profile = profile;
  replicate_locked(std::move(op));
  provisioned_.insert(ue);
}

void ControllerFleet::attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) {
  sc::LockGuard lock(mu_);
  tick_locked();
  // The profile check is fleet-level: the partition owner may be lagging on
  // slow-state replication and not have seen the provisioning op yet, but
  // fast state must not be held hostage by that -- route the attach as a
  // bare location write.
  if (!provisioned_.contains(ue))
    throw std::invalid_argument("ControllerFleet: attach of unknown UE");
  const std::uint32_t p = partition_of_locked(bs);
  const std::size_t owner = ensure_owner_locked(p);
  replicas_[owner]->update_location(ue, bs, local);
  ue_bs_[ue] = bs;
}

void ControllerFleet::detach_ue(UeId ue) {
  sc::LockGuard lock(mu_);
  tick_locked();
  const auto it = ue_bs_.find(ue);
  if (it == ue_bs_.end()) return;
  const std::size_t owner =
      ensure_owner_locked(partition_of_locked(it->second));
  replicas_[owner]->detach_ue(ue);
  ue_bs_.erase(it);
}

void ControllerFleet::update_location(UeId ue, std::uint32_t bs,
                                      LocalUeId local) {
  sc::LockGuard lock(mu_);
  tick_locked();
  const std::uint32_t p_new = partition_of_locked(bs);
  const std::size_t owner = ensure_owner_locked(p_new);
  const auto it = ue_bs_.find(ue);
  if (it != ue_bs_.end()) {
    const std::uint32_t p_old = partition_of_locked(it->second);
    if (p_old != p_new) {
      // Cross-partition mobility: the old partition's holder must forget
      // the UE.  A reachable holder is told directly; a dead or isolated
      // one is cleaned up by restart()/heal(), and a zombie (sabotage)
      // keeps the stale entry for the exactly-one-owner audit to find.
      const std::optional<std::size_t> prev = leases_[p_old].owner;
      if (prev && *prev != owner) {
        if (eligible_locked(*prev)) replicas_[*prev]->detach_ue(ue);
        ++stats_.cross_handoffs;
      }
    }
  }
  replicas_[owner]->update_location(ue, bs, local);
  ue_bs_[ue] = bs;
}

std::optional<UeLocation> ControllerFleet::ue_location(UeId ue) const {
  sc::LockGuard lock(mu_);
  tick_locked();
  const auto it = ue_bs_.find(ue);
  if (it == ue_bs_.end()) return std::nullopt;
  const std::size_t owner =
      ensure_owner_locked(partition_of_locked(it->second));
  return replicas_[owner]->ue_location(ue);
}

std::vector<PacketClassifier> ControllerFleet::fetch_classifiers(
    UeId ue, std::uint32_t bs) const {
  sc::LockGuard lock(mu_);
  tick_locked();
  const std::uint32_t p = partition_of_locked(bs);
  const std::size_t owner = ensure_owner_locked(p);
  // Classifiers are pure slow state.  The owner serves them unless it is
  // lagging on replication, in which case any caught-up replica gives the
  // fresher answer (same policy snapshot, newer tags).
  const std::size_t source =
      members_[owner].lagged ? forwarding_replica_locked() : owner;
  return replicas_[source]->fetch_classifiers(ue, bs);
}

PolicyTag ControllerFleet::request_policy_path(std::uint32_t bs,
                                               ClauseId clause) {
  sc::LockGuard lock(mu_);
  tick_locked();
  ensure_owner_locked(partition_of_locked(bs));
  LogOp op;
  op.kind = LogOp::Kind::kPath;
  op.a = bs;
  op.clause = clause;
  const auto tag = replicate_locked(std::move(op));
  if (!tag)
    throw std::logic_error("ControllerFleet: path install returned no tag");
  return *tag;
}

PolicyTag ControllerFleet::request_m2m_path(std::uint32_t src_bs,
                                            std::uint32_t dst_bs,
                                            ClauseId clause) {
  sc::LockGuard lock(mu_);
  tick_locked();
  ensure_owner_locked(partition_of_locked(src_bs));
  LogOp op;
  op.kind = LogOp::Kind::kM2m;
  op.a = src_bs;
  op.b = dst_bs;
  op.clause = clause;
  const auto tag = replicate_locked(std::move(op));
  if (!tag)
    throw std::logic_error("ControllerFleet: m2m install returned no tag");
  return *tag;
}

std::vector<NodeId> ControllerFleet::select_instances(std::uint32_t bs,
                                                      ClauseId clause) const {
  sc::LockGuard lock(mu_);
  // Read-only introspection of memoized selections: no tick, no lease
  // traffic -- any caught-up replica has the same memo.
  return replicas_[forwarding_replica_locked()]->select_instances(bs, clause);
}

// --- membership & fault injection --------------------------------------------

void ControllerFleet::kill(std::size_t replica, bool revoke_leases) {
  sc::LockGuard lock(mu_);
  tick_locked();
  check_replica_locked(replica);
  Member& m = members_[replica];
  if (!m.alive) return;
  m.alive = false;
  if (revoke_leases) {
    // Clean crash: the process is gone, its fast state with it, and the
    // lease layer learns immediately -- takeover needs no waiting.
    wipe_locations_locked(replica);
    for (auto& l : leases_)
      if (l.owner == replica) l.revoked = true;
  }
  // revoke_leases == false is the sabotage path: the member keeps its
  // (now stale) location map and its leases.  Successors must wait the
  // leases out, and the exactly-one-owner audit must flag the zombie.
}

void ControllerFleet::restart(std::size_t replica) {
  sc::LockGuard lock(mu_);
  tick_locked();
  check_replica_locked(replica);
  Member& m = members_[replica];
  if (m.alive) return;
  m.alive = true;
  m.isolated = false;
  m.lagged = false;
  replay_locked(replica);
  // Crash-restart loses fast state; whatever the store still holds (zombie
  // leftovers included) is invalid.  The member owns nothing until a
  // takeover assigns it a partition and rebuilds from agents.
  wipe_locations_locked(replica);
}

void ControllerFleet::isolate(std::size_t replica) {
  sc::LockGuard lock(mu_);
  tick_locked();
  check_replica_locked(replica);
  Member& m = members_[replica];
  if (!m.alive || m.isolated) return;
  m.isolated = true;
}

void ControllerFleet::heal(std::size_t replica) {
  sc::LockGuard lock(mu_);
  tick_locked();
  check_replica_locked(replica);
  heal_locked(replica);
}

void ControllerFleet::set_store_lag(std::size_t replica, bool lagged) {
  sc::LockGuard lock(mu_);
  tick_locked();
  check_replica_locked(replica);
  Member& m = members_[replica];
  if (!m.alive || m.isolated) return;
  if (lagged == m.lagged) return;
  if (lagged) {
    m.lagged = true;  // log cursor freezes; fast state keeps flowing
  } else {
    replay_locked(replica);
    m.lagged = false;
  }
}

void ControllerFleet::force_expire(std::uint32_t partition) {
  sc::LockGuard lock(mu_);
  tick_locked();
  if (partition >= options_.partitions)
    throw std::out_of_range("ControllerFleet: partition out of range");
  // Modeled as a revocation: the next operation on the partition must run
  // the takeover protocol (epoch bump + rebuild), even if it lands on the
  // same preferred owner.
  leases_[partition].revoked = true;
}

bool ControllerFleet::is_alive(std::size_t replica) const {
  sc::LockGuard lock(mu_);
  check_replica_locked(replica);
  return members_[replica].alive;
}

bool ControllerFleet::is_isolated(std::size_t replica) const {
  sc::LockGuard lock(mu_);
  check_replica_locked(replica);
  return members_[replica].isolated;
}

bool ControllerFleet::is_lagged(std::size_t replica) const {
  sc::LockGuard lock(mu_);
  check_replica_locked(replica);
  return members_[replica].lagged;
}

bool ControllerFleet::is_usable(std::size_t replica) const {
  sc::LockGuard lock(mu_);
  check_replica_locked(replica);
  return usable_locked(replica);
}

std::size_t ControllerFleet::alive_count() const {
  sc::LockGuard lock(mu_);
  std::size_t n = 0;
  for (const Member& m : members_)
    if (m.alive) ++n;
  return n;
}

std::size_t ControllerFleet::usable_count() const {
  sc::LockGuard lock(mu_);
  std::size_t n = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    if (usable_locked(r)) ++n;
  return n;
}

// --- recovery ----------------------------------------------------------------

void ControllerFleet::settle() {
  sc::LockGuard lock(mu_);
  tick_locked();
  for (std::size_t r = 0; r < replicas_.size(); ++r)
    if (members_[r].alive && members_[r].isolated) heal_locked(r);
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (members_[r].alive && members_[r].lagged) {
      replay_locked(r);
      members_[r].lagged = false;
    }
  }
  for (std::uint32_t p = 0; p < options_.partitions; ++p) {
    const Lease& l = leases_[p];
    if (l.owner && (l.revoked || !members_[*l.owner].alive))
      ensure_owner_locked(p);
  }
}

void ControllerFleet::fail_primary_and_recover() {
  sc::LockGuard lock(mu_);
  tick_locked();
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!eligible_locked(r)) continue;
    replicas_[r]->fail_primary_replica();
    for (std::uint32_t p = 0; p < options_.partitions; ++p)
      if (leases_[p].owner == r && !leases_[p].revoked)
        rebuild_partition_locked(r, p);
  }
}

// --- audits ------------------------------------------------------------------

std::vector<std::string> ControllerFleet::audit_exactly_one_owner(
    const std::vector<UeId>& ues) const {
  sc::LockGuard lock(mu_);
  std::vector<std::string> out;
  for (const UeId ue : ues) {
    // Dead and zombie members are deliberately included: a lease that was
    // not revoked on kill leaves its stale store behind, and THIS is the
    // audit that must see it.
    std::vector<std::size_t> holders;
    for (std::size_t r = 0; r < replicas_.size(); ++r)
      if (replicas_[r]->store().location(ue)) holders.push_back(r);
    std::ostringstream msg;
    if (holders.size() != 1) {
      msg << "ue " << ue.value() << " held by " << holders.size()
          << " replicas [";
      for (std::size_t i = 0; i < holders.size(); ++i)
        msg << (i ? " " : "") << holders[i];
      msg << "], expected exactly one";
      out.push_back(msg.str());
      continue;
    }
    const auto loc = replicas_[holders[0]]->store().location(ue);
    const std::uint32_t p = partition_of_locked(loc->bs);
    if (leases_[p].owner != holders[0]) {
      msg << "ue " << ue.value() << " held by replica " << holders[0]
          << " but partition " << p << " is owned by ";
      if (leases_[p].owner)
        msg << "replica " << *leases_[p].owner;
      else
        msg << "nobody";
      out.push_back(msg.str());
    }
  }
  return out;
}

std::optional<std::string> ControllerFleet::audit_engines_converged() const {
  sc::LockGuard lock(mu_);
  const std::size_t f = forwarding_replica_locked();
  const Controller& ref = *replicas_[f];
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (r == f || !usable_locked(r)) continue;
    const Controller& c = *replicas_[r];
    std::ostringstream msg;
    if (c.engine().total_rules() != ref.engine().total_rules()) {
      msg << "replica " << r << " engine has " << c.engine().total_rules()
          << " rules, replica " << f << " has " << ref.engine().total_rules();
      return msg.str();
    }
    if (c.engine().tags_allocated() != ref.engine().tags_allocated()) {
      msg << "replica " << r << " allocated " << c.engine().tags_allocated()
          << " tags, replica " << f << " allocated "
          << ref.engine().tags_allocated();
      return msg.str();
    }
    if (c.store().version() != ref.store().version()) {
      msg << "replica " << r << " store version " << c.store().version()
          << " != replica " << f << " version " << ref.store().version();
      return msg.str();
    }
  }
  return std::nullopt;
}

// --- introspection -----------------------------------------------------------

const AggregationEngine& ControllerFleet::forwarding_engine() const {
  sc::LockGuard lock(mu_);
  return replicas_[forwarding_replica_locked()]->engine();
}

std::size_t ControllerFleet::forwarding_replica() const {
  sc::LockGuard lock(mu_);
  return forwarding_replica_locked();
}

std::optional<std::size_t> ControllerFleet::owner_of_bs(
    std::uint32_t bs) const {
  sc::LockGuard lock(mu_);
  return leases_[partition_of_locked(bs)].owner;
}

std::uint64_t ControllerFleet::lease_epoch(std::uint32_t partition) const {
  sc::LockGuard lock(mu_);
  if (partition >= options_.partitions)
    throw std::out_of_range("ControllerFleet: partition out of range");
  return leases_[partition].epoch;
}

std::uint64_t ControllerFleet::logical_clock() const {
  sc::LockGuard lock(mu_);
  return clock_;
}

FleetStats ControllerFleet::stats() const {
  sc::LockGuard lock(mu_);
  return stats_;
}

void ControllerFleet::publish(telemetry::MetricSink& sink) const {
  sc::LockGuard lock(mu_);
  sink.counter("cluster.takeovers", stats_.takeovers);
  sink.counter("cluster.lease_renewals", stats_.lease_renewals);
  sink.counter("cluster.lease_waits", stats_.lease_waits);
  sink.counter("cluster.cross_handoffs", stats_.cross_handoffs);
  sink.counter("cluster.rebuilt_locations", stats_.rebuilt_locations);
  sink.counter("cluster.replayed_ops", stats_.replayed_ops);
  std::int64_t alive = 0;
  for (const Member& m : members_)
    if (m.alive) ++alive;
  sink.gauge("cluster.alive_replicas", alive);
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    const std::string prefix = "cluster.replica" + std::to_string(r) + ".";
    sink.counter(prefix + "path_installs", replicas_[r]->path_installs());
    sink.gauge(prefix + "attached_ues",
               static_cast<std::int64_t>(
                   replicas_[r]->store().attached_ues()));
  }
}

}  // namespace softcell::cluster
