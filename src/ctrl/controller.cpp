#include "ctrl/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "telemetry/trace.hpp"

// sc-lint: commit-owner(Controller) -- the switch-table engine is mutated
// only here; every cross-shard install reaches these call sites through
// the CoreCommitter's single-writer commit stage (DESIGN.md section 16),
// which is what keeps the installed-path tag maps and the state
// fingerprint in step with the table.

namespace softcell {

Controller::Controller(const CellularTopology& topo, ServicePolicy policy,
                       ControllerOptions options)
    : Controller(topo,
                 std::make_shared<const ServicePolicy>(std::move(policy)),
                 options) {}

Controller::Controller(const CellularTopology& topo,
                       std::shared_ptr<const ServicePolicy> policy,
                       ControllerOptions options)
    : topo_(&topo),
      policy_(std::move(policy)),
      options_(options),
      routes_(topo.graph()),
      engine_(topo.graph(), options.engine),
      store_(options.store_replicas) {
  if (policy_ == nullptr)
    throw std::invalid_argument("Controller: null policy snapshot");
}

void Controller::set_policy(std::shared_ptr<const ServicePolicy> policy) {
  if (policy == nullptr)
    throw std::invalid_argument("set_policy: null policy snapshot");
  sc::WriteLock lock(mu_);
  policy_ = std::move(policy);
}

std::shared_ptr<const ServicePolicy> Controller::policy_snapshot() const {
  sc::ReadLock lock(mu_);
  return policy_;
}

void Controller::provision_subscriber(UeId ue,
                                      const SubscriberProfile& profile) {
  sc::WriteLock lock(mu_);
  store_.put_profile(ue, profile);
}

void Controller::attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) {
  sc::WriteLock lock(mu_);
  if (!store_.profile(ue))
    throw std::invalid_argument("attach_ue: unknown subscriber");
  store_.set_location(ue, UeLocation{bs, local});
}

void Controller::detach_ue(UeId ue) {
  sc::WriteLock lock(mu_);
  store_.clear_location(ue);
}

void Controller::update_location(UeId ue, std::uint32_t bs, LocalUeId local) {
  sc::WriteLock lock(mu_);
  store_.set_location(ue, UeLocation{bs, local});
}

std::optional<UeLocation> Controller::ue_location(UeId ue) const {
  sc::ReadLock lock(mu_);
  return store_.location(ue);
}

std::vector<PacketClassifier> Controller::fetch_classifiers(
    UeId ue, std::uint32_t bs) const {
  sc::ReadLock lock(mu_);
  const std::optional<SubscriberProfile> profile = store_.profile(ue);
  if (!profile)
    throw std::invalid_argument("fetch_classifiers: unknown subscriber");

  // The lambda reads the store through a reference bound under the lock
  // held above: the capability analysis checks a lambda body on its own.
  const ControlStore& store = store_;
  return compile_classifiers(*policy_, *profile, [&](ClauseId clause) {
    return store.path(clause, bs);
  });
}

std::vector<NodeId> Controller::select_instances(std::uint32_t bs,
                                                 ClauseId clause) const {
  sc::ReadLock lock(mu_);
  return select_instances_locked(bs, clause);
}

std::vector<NodeId> Controller::select_instances_locked(
    std::uint32_t bs, ClauseId clause) const {
  if (const std::vector<NodeId>* sel =
          selected_.find(SlowState::PathKey{clause, bs}))
    return *sel;
  const PolicyClause& c = policy_->clause(clause);
  const std::uint32_t pod = topo_->pod_of_bs(bs);
  std::vector<NodeId> out;
  out.reserve(c.action.middleboxes.size());
  for (MbType type : c.action.middleboxes) {
    if (type >= topo_->num_middlebox_types())
      throw std::out_of_range("select_instances: no such middlebox type");
    // Low-latency traffic (e.g. M2M fleet tracking, Table 1 clause 5) stays
    // on pod-local instances: the shortest path that still satisfies the
    // middlebox sequence ("the action does not indicate a specific instance
    // ... allowing the controller to select instances and network paths
    // that minimize latency and load", section 2.2).
    if (c.action.qos == QosClass::kLowLatency) {
      out.push_back(topo_->pod_instance(type, pod).node);
      continue;
    }
    switch (options_.placement) {
      case InstancePlacement::kPodLocal:
        out.push_back(topo_->pod_instance(type, pod).node);
        break;
      case InstancePlacement::kCoreOnly:
        out.push_back(topo_->core_instance(type, pod % 2).node);
        break;
      case InstancePlacement::kGatewayHeavy:
        // Firewalls screen Internet traffic near the gateway (section 2.3
        // discussion); everything else is served pod-locally.
        if (type == mb::kFirewall)
          out.push_back(topo_->core_instance(type, pod % 2).node);
        else
          out.push_back(topo_->pod_instance(type, pod).node);
        break;
      case InstancePlacement::kLeastLoaded: {
        // "the controller ... automatically select[s] middlebox instances
        // ... that minimize latency and load" (section 2.2): among the
        // nearby candidates, pick the one with the fewest assigned paths.
        const NodeId candidates[3] = {topo_->pod_instance(type, pod).node,
                                      topo_->core_instance(type, 0).node,
                                      topo_->core_instance(type, 1).node};
        NodeId best = candidates[0];
        for (const NodeId cand : candidates)
          if (instance_load_locked(cand) < instance_load_locked(best))
            best = cand;
        out.push_back(best);
        break;
      }
    }
  }
  return out;
}

using InstallResultAlias = AggregationEngine::InstallResult;

Controller::InstalledPath Controller::install_path_locked(
    std::uint32_t bs, ClauseId clause, std::optional<PolicyTag> hint) {
  SC_TRACE_SPAN_ARG("ctrl.install_path", bs);
  const auto instances = select_instances_locked(bs, clause);
  selected_[SlowState::PathKey{clause, bs}] = instances;
  const auto up = expand_policy_path(topo_->graph(), routes_,
                                     Direction::kUplink,
                                     topo_->access_switch(bs), instances,
                                     topo_->gateway(), topo_->internet());
  const auto down = expand_policy_path(topo_->graph(), routes_,
                                       Direction::kDownlink,
                                       topo_->access_switch(bs), instances,
                                       topo_->gateway(), topo_->internet());
  const Prefix origin = topo_->bs_prefix(bs);
  // Both directions share the tag so the access switch embeds one tag and
  // the gateway sees the same one piggybacked back (section 4.1).
  // The uplink tag choice must avoid anything live in this base station's
  // downlink namespace (e.g. tags of M2M half-paths toward it), because the
  // downlink direction is pinned to the same tag next.
  for (const NodeId mb : instances) ++instance_load_[mb];
  const auto up_res = engine_.install(
      up, bs, origin, hint, /*pin=*/false,
      AggregationEngine::bs_key(bs, Direction::kDownlink));
  InstallResultAlias down_res;
  try {
    down_res = engine_.install(down, bs, origin, up_res.tag, /*pin=*/true);
  } catch (const AggregationEngine::PathRejected&) {
    // Deny the whole request, never a half-installed direction.
    engine_.remove(up_res.path);
    throw;
  }
  ++path_installs_;
  return InstalledPath{up_res.tag, up_res.path, down_res.path};
}

PolicyTag Controller::request_policy_path_locked(std::uint32_t bs,
                                                 ClauseId clause) {
  if (const auto tag = path_tag(clause, bs)) return *tag;

  std::optional<PolicyTag> hint;
  if (const PolicyTag* h = clause_hints_.find(clause)) hint = *h;
  const auto path = install_path_locked(bs, clause, hint);
  {
    sc::WriteLock paths_lock(paths_mu_);
    installed_.try_emplace(SlowState::PathKey{clause, bs}, path);
  }
  clause_hints_[clause] = path.tag;
  store_.put_path(clause, bs, path.tag);
  return path.tag;
}

PolicyTag Controller::request_policy_path(std::uint32_t bs, ClauseId clause) {
  SC_TRACE_SPAN_ARG("ctrl.request_policy_path", bs);
  sc::WriteLock lock(mu_);
  return request_policy_path_locked(bs, clause);
}

std::vector<PolicyTag> Controller::request_policy_paths(
    std::span<const PathRequest> requests) {
  // Process in (bs, clause) order: consecutive installs then share origin
  // prefixes and candidate tags, which is exactly what the engine's memo
  // and MRU heuristics exploit.  Results are reported in request order.
  std::vector<std::uint32_t> order(requests.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const PathRequest& ra = requests[a];
    const PathRequest& rb = requests[b];
    if (ra.bs != rb.bs) return ra.bs < rb.bs;
    if (ra.clause != rb.clause) return ra.clause < rb.clause;
    return a < b;
  });
  std::vector<PolicyTag> tags(requests.size());
  sc::WriteLock lock(mu_);
  for (const std::uint32_t i : order)
    tags[i] = request_policy_path_locked(requests[i].bs, requests[i].clause);
  return tags;
}

PolicyTag Controller::request_m2m_path(std::uint32_t src_bs,
                                       std::uint32_t dst_bs,
                                       ClauseId clause) {
  sc::WriteLock lock(mu_);
  if (const auto tag = m2m_tag(clause, src_bs, dst_bs)) return *tag;

  // Both directions of a connection must traverse the same middlebox
  // instances (section 2.1), so instance selection is symmetric in the
  // endpoint pair (keyed by the smaller base station id) and the reverse
  // direction traverses them in reverse order.  Rules match the peer's
  // LocIP prefix, so tag uniqueness is tracked against the destination
  // base station (same namespace as gateway-downlink paths).
  auto instances = select_instances_locked(std::min(src_bs, dst_bs), clause);
  if (src_bs > dst_bs) std::reverse(instances.begin(), instances.end());
  const auto path = expand_m2m_path(topo_->graph(), routes_,
                                    topo_->access_switch(src_bs), instances,
                                    topo_->access_switch(dst_bs));
  const auto r =
      engine_.install(path, dst_bs, topo_->bs_prefix(dst_bs), std::nullopt);
  ++path_installs_;
  sc::WriteLock paths_lock(paths_mu_);
  m2m_installed_.try_emplace(M2mKey{clause, src_bs, dst_bs}, r.tag);
  return r.tag;
}

Controller::Migration Controller::migrate_path(std::uint32_t bs,
                                               ClauseId clause) {
  sc::WriteLock lock(mu_);
  const SlowState::PathKey key{clause, bs};
  InstalledPath old;
  {
    sc::ReadLock paths_lock(paths_mu_);
    const InstalledPath* found = std::as_const(installed_).find(key);
    if (found == nullptr)
      throw std::invalid_argument("migrate_path: path not installed");
    old = *found;
  }
  const PolicyTag old_tag = old.tag;

  // Phase 1: install the new version under a fresh tag.  Forcing "no hint"
  // is not enough (the engine may legally reuse any tag not used by this
  // bs); pass the old tag as *excluded* by relying on per-bs uniqueness:
  // the old path still holds the tag at this bs, so the engine cannot pick
  // it again.
  const auto fresh = install_path_locked(bs, clause, std::nullopt);
  // Phase 2: flip what new flows see -- the classifier tag in the store and
  // the installed entry path_tag() readers resolve.
  store_.put_path(clause, bs, fresh.tag);
  {
    sc::WriteLock paths_lock(paths_mu_);
    *installed_.find(key) = fresh;
  }
  clause_hints_[clause] = fresh.tag;
  // Old rules stay installed until drained (phase 3, drain_old_path).
  draining_.try_emplace(DrainKey{key, old_tag}, old);
  if (listener_) listener_(bs, clause, fresh.tag);
  return Migration{old_tag, fresh.tag};
}

void Controller::drain_old_path(std::uint32_t bs, ClauseId clause,
                                PolicyTag old_tag) {
  sc::WriteLock lock(mu_);
  const DrainKey key{{clause, bs}, old_tag};
  const InstalledPath* old = draining_.find(key);
  if (old == nullptr)
    throw std::invalid_argument("drain_old_path: nothing draining");
  engine_.remove(old->up);
  engine_.remove(old->down);
  draining_.erase(key);
}

Controller::RecompactResult Controller::recompact() {
  sc::WriteLock lock(mu_);
  if (!draining_.empty())
    throw std::logic_error("recompact: drain pending migrations first");

  RecompactResult result;
  result.rules_before = engine_.total_rules();
  result.tags_before = engine_.tags_in_use();

  // Clause-major order maximizes tag sharing on the rebuild.
  std::vector<SlowState::PathKey> keys;
  std::vector<M2mKey> m2m_keys;
  {
    sc::ReadLock paths_lock(paths_mu_);
    keys.reserve(installed_.size());
    installed_.for_each(
        [&](const SlowState::PathKey& key, const InstalledPath&) {
          keys.push_back(key);
        });
    m2m_keys.reserve(m2m_installed_.size());
    m2m_installed_.for_each(
        [&](const M2mKey& key, const PolicyTag&) { m2m_keys.push_back(key); });
  }
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return std::tie(a.clause, a.bs) < std::tie(b.clause, b.bs);
  });
  std::sort(m2m_keys.begin(), m2m_keys.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.clause, a.src, a.dst) <
                     std::tie(b.clause, b.src, b.dst);
            });

  engine_ = AggregationEngine(topo_->graph(), options_.engine);
  {
    // Readers see each key absent from here until it is reinstalled below.
    sc::WriteLock paths_lock(paths_mu_);
    installed_.clear();
    m2m_installed_.clear();
  }
  clause_hints_.clear();
  selected_.clear();
  instance_load_.clear();

  for (const auto& key : keys) {
    std::optional<PolicyTag> hint;
    if (const PolicyTag* h = clause_hints_.find(key.clause)) hint = *h;
    const auto path = install_path_locked(key.bs, key.clause, hint);
    {
      sc::WriteLock paths_lock(paths_mu_);
      installed_.try_emplace(key, path);
    }
    clause_hints_[key.clause] = path.tag;
    store_.put_path(key.clause, key.bs, path.tag);
    if (listener_) listener_(key.bs, key.clause, path.tag);
  }
  for (const auto& key : m2m_keys) {
    auto instances =
        select_instances_locked(std::min(key.src, key.dst), key.clause);
    if (key.src > key.dst) std::reverse(instances.begin(), instances.end());
    const auto path = expand_m2m_path(topo_->graph(), routes_,
                                      topo_->access_switch(key.src), instances,
                                      topo_->access_switch(key.dst));
    const auto r = engine_.install(path, key.dst, topo_->bs_prefix(key.dst),
                                   std::nullopt);
    sc::WriteLock paths_lock(paths_mu_);
    m2m_installed_.try_emplace(key, r.tag);
  }

  result.rules_after = engine_.total_rules();
  result.tags_after = engine_.tags_in_use();
  return result;
}

std::optional<PolicyTag> Controller::path_tag(ClauseId clause,
                                              std::uint32_t bs) const {
  sc::ReadLock paths_lock(paths_mu_);
  if (const InstalledPath* p = installed_.find(SlowState::PathKey{clause, bs}))
    return p->tag;
  return std::nullopt;
}

std::optional<PolicyTag> Controller::m2m_tag(ClauseId clause,
                                             std::uint32_t src_bs,
                                             std::uint32_t dst_bs) const {
  sc::ReadLock paths_lock(paths_mu_);
  if (const PolicyTag* tag =
          m2m_installed_.find(M2mKey{clause, src_bs, dst_bs}))
    return *tag;
  return std::nullopt;
}

Controller::MemoryFootprint Controller::memory_footprint() const {
  sc::ReadLock lock(mu_);
  sc::ReadLock paths_lock(paths_mu_);
  MemoryFootprint m;
  m.store_primary = store_.primary_bytes_resident();
  m.store_total = store_.bytes_resident();
  m.path_maps = installed_.bytes_resident() + m2m_installed_.bytes_resident() +
                clause_hints_.bytes_resident() + draining_.bytes_resident() +
                instance_load_.bytes_resident() + selected_.bytes_resident();
  return m;
}

namespace {
// FNV-1a, folded over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  }
};
}  // namespace

std::uint64_t Controller::state_fingerprint(std::uint64_t fold_store_writes,
                                            std::uint64_t fold_attached) const {
  sc::ReadLock lock(mu_);
  sc::ReadLock paths_lock(paths_mu_);
  Fnv f;

  // Installed gateway paths, canonical order.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t>> paths;
  paths.reserve(installed_.size());
  installed_.for_each([&](const SlowState::PathKey& key, const InstalledPath& p) {
    paths.emplace_back(key.clause.value(), key.bs, p.tag.value());
  });
  std::sort(paths.begin(), paths.end());
  f.mix(paths.size());
  for (const auto& [clause, bs, tag] : paths) {
    f.mix(clause);
    f.mix(bs);
    f.mix(tag);
  }

  // M2M half-paths.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                         std::uint16_t>>
      m2m;
  m2m.reserve(m2m_installed_.size());
  m2m_installed_.for_each([&](const M2mKey& key, const PolicyTag& tag) {
    m2m.emplace_back(key.clause.value(), key.src, key.dst, tag.value());
  });
  std::sort(m2m.begin(), m2m.end());
  f.mix(m2m.size());
  for (const auto& [clause, src, dst, tag] : m2m) {
    f.mix(clause);
    f.mix(src);
    f.mix(dst);
    f.mix(tag);
  }

  // Middlebox load assignment.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> loads;
  loads.reserve(instance_load_.size());
  instance_load_.for_each([&](const NodeId& node, const std::uint64_t& n) {
    loads.emplace_back(node.value(), n);
  });
  std::sort(loads.begin(), loads.end());
  for (const auto& [node, n] : loads) {
    f.mix(node);
    f.mix(n);
  }

  // Engine rule universe: per-switch table sizes pin down the installed
  // rule set far more tightly than the global total alone.
  const auto stats = engine_.table_stats();
  for (const auto s : stats.fabric_sizes) f.mix(s);
  for (const auto s : stats.access_sizes) f.mix(s);
  f.mix(stats.type1);
  f.mix(stats.type2);
  f.mix(stats.type3);
  f.mix(engine_.total_rules());
  f.mix(engine_.tags_in_use());

  // Store + lifecycle counters.  The fold-ins account for writes that the
  // shard-brain partition routed to per-shard stores instead of this one
  // (zero for a standalone controller).
  f.mix(store_.version() + fold_store_writes);
  f.mix(store_.attached_ues() + fold_attached);
  f.mix(draining_.size());
  f.mix(path_installs_);
  return f.h;
}

void Controller::fail_primary_replica() {
  sc::WriteLock lock(mu_);
  store_.fail_primary();
}

void Controller::rebuild_locations(
    const std::function<void(const std::function<void(UeId, UeLocation)>&)>&
        query) {
  sc::WriteLock lock(mu_);
  store_.rebuild_locations(query);
}

}  // namespace softcell
