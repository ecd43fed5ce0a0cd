#include "agent/local_agent.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/trace.hpp"

namespace softcell {

LocalAgent::LocalAgent(std::uint32_t bs_index, AddressPlan plan,
                       PortCodec codec, ControlPlane& controller,
                       AccessSwitch& access)
    : bs_index_(bs_index),
      plan_(plan),
      codec_(codec),
      controller_(&controller),
      access_(&access) {}

LocalUeId LocalAgent::alloc_local_id() {
  const auto limit = plan_.max_ues_per_bs();
  for (std::uint32_t probe = 0; probe < limit; ++probe) {
    const LocalUeId id(next_id_);
    next_id_ = static_cast<std::uint16_t>((next_id_ + 1) % limit);
    if (!used_ids_.contains(id) && !quarantine_.contains(id)) {
      used_ids_.insert(id);
      return id;
    }
  }
  throw std::runtime_error("LocalAgent: out of local UE ids");
}

Ipv4Addr LocalAgent::ue_arrive(UeId ue, Ipv4Addr permanent_ip) {
  if (ues_.contains(ue))
    throw std::invalid_argument("ue_arrive: already attached");
  UeState st;
  st.local = alloc_local_id();
  st.permanent_ip = permanent_ip;
  controller_->attach_ue(ue, bs_index_, st.local);
  st.classifiers = controller_->fetch_classifiers(ue, bs_index_);
  const Ipv4Addr locip = plan_.encode(bs_index_, st.local);
  ues_.try_emplace(ue, std::move(st));
  return locip;
}

void LocalAgent::release_flow_records(UeState& st) {
  for (mem::Handle h = st.flow_head; h;) {
    FlowRec* rec = flow_slab_.get(h);
    const mem::Handle next = rec->next;
    flow_index_.erase(rec->key);
    flow_slab_.erase(h);
    h = next;
  }
  st.flow_head = mem::Handle{};
  st.flow_count = 0;
}

void LocalAgent::ue_depart(UeId ue) {
  UeState* st = ues_.find(ue);
  if (st == nullptr) throw std::invalid_argument("ue_depart: not attached");
  for (mem::Handle h = st->flow_head; h;) {
    const FlowRec* rec = flow_slab_.get(h);
    access_->flows().remove(rec->key);
    access_->flows().remove(rec->entry.down_key);
    h = rec->next;
  }
  release_flow_records(*st);
  used_ids_.erase(st->local);
  controller_->detach_ue(ue);
  ues_.erase(ue);
}

std::optional<Ipv4Addr> LocalAgent::locip_of(UeId ue) const {
  const UeState* st = ues_.find(ue);
  if (st == nullptr) return std::nullopt;
  return plan_.encode(bs_index_, st->local);
}

std::optional<Ipv4Addr> LocalAgent::permanent_ip_of(UeId ue) const {
  const UeState* st = ues_.find(ue);
  if (st == nullptr) return std::nullopt;
  return st->permanent_ip;
}

std::optional<LocalUeId> LocalAgent::local_of(UeId ue) const {
  const UeState* st = ues_.find(ue);
  if (st == nullptr) return std::nullopt;
  return st->local;
}

std::vector<LocalAgent::ActiveFlow> LocalAgent::active_flows(UeId ue) const {
  std::vector<ActiveFlow> out;
  const UeState* st = ues_.find(ue);
  if (st == nullptr) return out;
  out.reserve(st->flow_count);
  for (mem::Handle h = st->flow_head; h;) {
    const FlowRec* rec = flow_slab_.get(h);
    out.push_back(ActiveFlow{rec->key, rec->entry.tag, rec->entry.clause});
    h = rec->next;
  }
  // Canonical order: downstream consumers (mobility shortcut pairing) are
  // first-wins per tag, so the order must not depend on the record list.
  std::sort(out.begin(), out.end(),
            [](const ActiveFlow& a, const ActiveFlow& b) {
              return a.key < b.key;
            });
  return out;
}

const PacketClassifier* LocalAgent::classify(const UeState& st,
                                             AppType app) const {
  const PacketClassifier* wildcard = nullptr;
  for (const auto& c : st.classifiers) {
    if (c.app == app) return &c;
    if (c.app == AppType::kOther) wildcard = &c;
  }
  return wildcard;
}

void LocalAgent::install_microflow(UeState& st, const FlowKey& flow,
                                   PolicyTag tag, ClauseId clause) {
  const Ipv4Addr locip = plan_.encode(bs_index_, st.local);
  const auto [it, fresh] = flow_index_.try_emplace(flow);
  if (fresh) {
    const mem::Handle h = flow_slab_.emplace(
        FlowRec{flow, FlowEntry{st.next_slot, {}, {}, {}}, st.flow_head});
    it->second = h;
    st.flow_head = h;
    ++st.flow_count;
    st.next_slot = static_cast<std::uint16_t>(
        (st.next_slot + 1) % codec_.max_flows_per_ue());
  }
  FlowEntry* entry = &flow_slab_.get(it->second)->entry;
  const std::uint16_t port = codec_.encode(tag, entry->slot);

  // Uplink: permanent 5-tuple -> LocIP + tagged port, toward the fabric.
  MicroflowAction up;
  up.set_src_ip = locip;
  up.set_src_port = port;
  up.out_to = access_->uplink_next();
  access_->flows().install(flow, up);

  // Downlink: the translated reverse flow -> permanent address, deliver.
  FlowKey down;
  down.src_ip = flow.dst_ip;
  down.src_port = flow.dst_port;
  down.dst_ip = locip;
  down.dst_port = port;
  down.proto = flow.proto;
  MicroflowAction dn;
  dn.set_dst_ip = st.permanent_ip;
  dn.set_dst_port = flow.src_port;
  access_->flows().install(down, dn);
  entry->down_key = down;
  entry->tag = tag;
  entry->clause = clause;
}

LocalAgent::FlowResult LocalAgent::handle_new_flow(UeId ue,
                                                   const FlowKey& flow) {
  UeState* stp = ues_.find(ue);
  if (stp == nullptr) return FlowResult{};
  UeState& st = *stp;

  const AppType app = app_from_dst_port(flow.dst_port);
  const PacketClassifier* cls = classify(st, app);
  FlowResult out;
  if (cls == nullptr || !cls->allow) {
    out.verdict = FlowVerdict::kDenied;
    return out;
  }
  out.clause = cls->clause;
  if (cls->tag) {
    // Cache hit: the policy path exists, handle entirely locally.
    out.cache_hit = true;
    ++hits_;
    out.tag = *cls->tag;
  } else {
    // Miss: the first flow at this base station needing this policy path.
    // This is the edge of the causal chain -- mint a fresh trace id here
    // and every span downstream (runtime pipeline, controller, engine,
    // FlowMod install) stitches onto it.
    ++misses_;
    telemetry::TraceScope trace_scope(telemetry::new_trace_id());
    SC_TRACE_SPAN_ARG("agent.classifier_miss", ue.value());
    out.tag = path_requester_
                  ? path_requester_(ue, bs_index_, cls->clause)
                  : controller_->request_policy_path(bs_index_, cls->clause);
    // Update the cached classifier so later flows hit.
    for (auto& c : st.classifiers)
      if (c.clause == cls->clause) c.tag = out.tag;
  }
  install_microflow(st, flow, out.tag, out.clause);
  out.verdict = FlowVerdict::kInstalled;
  return out;
}

Ipv4Addr LocalAgent::ue_handoff_in(UeId ue, Ipv4Addr permanent_ip,
                                   const AccessSwitch& old_access,
                                   std::vector<Ipv4Addr>* moved_locips) {
  if (ues_.contains(ue))
    throw std::invalid_argument("ue_handoff_in: already attached");
  UeState st;
  st.local = alloc_local_id();
  st.permanent_ip = permanent_ip;
  controller_->update_location(ue, bs_index_, st.local);
  st.classifiers = controller_->fetch_classifiers(ue, bs_index_);

  // Copy the UE's microflow rules from the old access switch so in-flight
  // flows keep using their established LocIPs (section 5.1).  Uplink rules
  // are keyed by the permanent source address; downlink rules are the ones
  // that translate back to it.
  //
  // Uplink packets of an in-flight flow must enter the fabric where its
  // LocIP's (tag, prefix) rules live: at the *anchor* access switch that
  // owns the LocIP.  A rule that injected locally at the old switch is
  // therefore re-pointed through the inter-BS tunnel to that switch; a rule
  // that already tunneled to an earlier anchor (chained handoffs) keeps its
  // target.
  for (const auto& [key, action] : old_access.flows().rules()) {
    const bool uplink_rule = key.src_ip == permanent_ip;
    const bool downlink_rule = action.set_dst_ip == permanent_ip;
    if (!uplink_rule && !downlink_rule) continue;
    MicroflowAction copy = action;
    if (uplink_rule && action.out_to == old_access.uplink_next())
      copy.out_to = old_access.node();
    access_->flows().install(key, copy);
    if (downlink_rule && moved_locips != nullptr)
      moved_locips->push_back(key.dst_ip);
  }
  const Ipv4Addr locip = plan_.encode(bs_index_, st.local);
  ues_.try_emplace(ue, std::move(st));
  return locip;
}

void LocalAgent::update_classifier_tag(ClauseId clause, PolicyTag tag) {
  ues_.for_each([&](const UeId&, UeState& st) {
    for (auto& c : st.classifiers)
      if (c.clause == clause && c.allow) c.tag = tag;
  });
}

void LocalAgent::ue_handoff_out(UeId ue) {
  UeState* st = ues_.find(ue);
  if (st == nullptr)
    throw std::invalid_argument("ue_handoff_out: not attached");
  quarantine_.insert(st->local);
  used_ids_.erase(st->local);
  // The microflow rules moved with the UE; only the agent-side flow records
  // die here.
  release_flow_records(*st);
  ues_.erase(ue);
}

void LocalAgent::release_quarantine(LocalUeId id) { quarantine_.erase(id); }

void LocalAgent::restart() {
  // All soft state is lost...
  std::vector<std::pair<UeId, Ipv4Addr>> before;
  before.reserve(ues_.size());
  ues_.for_each([&](const UeId& ue, const UeState& st) {
    before.emplace_back(ue, st.permanent_ip);
  });
  ues_.clear();
  flow_slab_.clear();
  flow_index_.clear();
  hits_ = 0;
  misses_ = 0;
  // ...and rebuilt read-only from the controller (section 5.2): local ids
  // come from the controller's location map, classifiers are refetched, and
  // flow slots are recovered from the access switch's surviving rules.
  for (const auto& [ue, permanent_ip] : before) {
    const auto loc = controller_->ue_location(ue);
    if (!loc || loc->bs != bs_index_)
      throw std::logic_error("restart: controller lost a UE location");
    UeState st;
    st.local = loc->local;
    st.permanent_ip = permanent_ip;
      st.classifiers = controller_->fetch_classifiers(ue, bs_index_);
    const Ipv4Addr locip = plan_.encode(bs_index_, st.local);
    std::uint16_t max_slot = 0;
    for (const auto& [key, action] : access_->flows().rules()) {
      if (key.src_ip != st.permanent_ip) continue;
      if (!action.set_src_port) continue;
      if (action.set_src_ip != locip) continue;  // old-LocIP copies excluded
      const auto slot = codec_.flow_slot_of(*action.set_src_port);
      FlowKey down;
      down.src_ip = key.dst_ip;
      down.src_port = key.dst_port;
      down.dst_ip = locip;
      down.dst_port = *action.set_src_port;
      down.proto = key.proto;
      const PolicyTag tag = codec_.tag_of(*action.set_src_port);
      ClauseId clause{};
      for (const auto& cl : st.classifiers)
        if (cl.tag == tag) clause = cl.clause;
      const mem::Handle h = flow_slab_.emplace(
          FlowRec{key, FlowEntry{slot, down, tag, clause}, st.flow_head});
      flow_index_[key] = h;
      st.flow_head = h;
      ++st.flow_count;
      max_slot = std::max<std::uint16_t>(max_slot,
                                         static_cast<std::uint16_t>(slot + 1));
    }
    st.next_slot = max_slot;
    ues_.try_emplace(ue, std::move(st));
  }
}

void LocalAgent::enumerate_ues(
    const std::function<void(UeId, UeLocation)>& fn) const {
  ues_.for_each([&](const UeId& ue, const UeState& st) {
    fn(ue, UeLocation{bs_index_, st.local});
  });
}

std::size_t LocalAgent::bytes_resident() const {
  std::size_t total = ues_.bytes_resident() + flow_slab_.bytes_resident() +
                      flow_index_.size() * (sizeof(FlowKey) + sizeof(mem::Handle));
  ues_.for_each([&](const UeId&, const UeState& st) {
    total += st.classifiers.capacity() * sizeof(PacketClassifier);
  });
  return total;
}

}  // namespace softcell
