#include "sim/network.hpp"

#include <stdexcept>

#include "telemetry/trace.hpp"

namespace softcell {

namespace {
constexpr Ipv4Addr kPermanentBase = 0x64400000u;  // 100.64.0.0/10 (CGN space)
constexpr Prefix kNatPool{0xC6336400u, 24};       // 198.51.100.0/24
constexpr Prefix kPublicPool{0xCB007100u, 24};    // 203.0.113.0/24
constexpr int kHopLimit = 1000;

// Modelled one-way per-hop latencies (milliseconds).  Backhaul-ring hops are
// slower than fabric hops; middlebox processing dominates; priority-queued
// (low-latency QoS) packets see shorter switch queues.
double hop_latency_ms(NodeKind kind, QosClass qos) {
  double base = 0;
  switch (kind) {
    case NodeKind::kAccessSwitch: base = 0.50; break;   // backhaul ring hop
    case NodeKind::kAggSwitch: base = 0.10; break;
    case NodeKind::kCoreSwitch: base = 0.05; break;
    case NodeKind::kGatewaySwitch: base = 0.05; break;
    case NodeKind::kMiddlebox: base = 0.80; break;      // processing
    case NodeKind::kInternet: base = 0.0; break;
  }
  // Priority queuing: low-latency class skips the standing queue.
  return qos == QosClass::kLowLatency ? base * 0.6 : base;
}
}  // namespace

namespace {
// The engine may only allocate tags that fit the port-embedding split.
ControllerOptions with_tag_bound(ControllerOptions opts,
                                 std::uint8_t tag_bits) {
  if (opts.engine.max_tags == 0)
    opts.engine.max_tags = PortCodec(tag_bits).max_tags();
  return opts;
}

// Fleet-mode config normalization (see SoftCellConfig::cluster_controllers).
SoftCellConfig normalized(SoftCellConfig config) {
  if (config.cluster_controllers > 0) {
    if (config.runtime_workers > 0)
      throw std::invalid_argument(
          "SoftCellNetwork: cluster_controllers and runtime_workers are "
          "mutually exclusive");
    if (config.runtime_shards > 0)
      throw std::invalid_argument(
          "SoftCellNetwork: cluster_controllers and runtime_shards are "
          "mutually exclusive (the fleet partitions by serving bs)");
    config.mobility.install_shortcuts = false;
  }
  return config;
}
}  // namespace

SoftCellNetwork::SoftCellNetwork(SoftCellConfig config, ServicePolicy policy)
    : config_(normalized(config)),
      topo_(config_.topo),
      codec_(config_.tag_bits),
      // Fleet or brain: the partitioned shard-brain unless a controller
      // fleet is configured.
      brain_(config_.cluster_controllers == 0
                 ? std::make_unique<ShardBrain>(
                       topo_, policy,
                       ShardBrainOptions{
                           .shards = config_.runtime_shards > 0
                                         ? config_.runtime_shards
                                         : 4,
                           .controller = with_tag_bound(config_.controller,
                                                        config_.tag_bits)})
                 : nullptr),
      fleet_(config_.cluster_controllers > 0
                 ? std::make_unique<cluster::ControllerFleet>(
                       topo_, std::move(policy),
                       cluster::FleetOptions{
                           .replicas = config_.cluster_controllers,
                           .controller = with_tag_bound(config_.controller,
                                                        config_.tag_bits)})
                 : nullptr),
      controller_(fleet_ ? fleet_->replica(0) : brain_->core()),
      cp_(fleet_ ? static_cast<ControlPlane&>(*fleet_)
                 : static_cast<ControlPlane&>(*brain_)),
      mobility_(controller_, topo_.plan(), codec_, config_.mobility) {
  if (config_.runtime_workers > 0)
    runtime_ = std::make_unique<ControlPlaneRuntime>(
        *brain_, RuntimeOptions{.workers = config_.runtime_workers});
  if (config_.attach_mirror)
    mirror_ = std::make_unique<ofp::Mirror>(controller_.engine());
  const auto n = topo_.num_base_stations();
  access_.reserve(n);
  agents_.reserve(n);
  for (std::uint32_t bs = 0; bs < n; ++bs) {
    const NodeId node = topo_.access_switch(bs);
    // Static uplink default: the first hop of the shortest path toward the
    // gateway (through the backhaul ring to the aggregation switch).
    const auto to_gw = controller_.routes().path(node, topo_.gateway());
    access_.push_back(std::make_unique<AccessSwitch>(node, bs, to_gw.at(1)));
    agents_.push_back(std::make_unique<LocalAgent>(
        bs, topo_.plan(), codec_, cp_, *access_.back()));
    if (runtime_)
      agents_.back()->set_path_requester(
          [this](UeId ue, std::uint32_t abs, ClauseId clause) {
            return runtime_->request_policy_path(ue, abs, clause);
          });
    node_to_bs_.emplace(node, bs);
  }
  for (const auto& inst : topo_.middleboxes())
    middleboxes_.emplace(inst.node, make_middlebox(inst.type, topo_.plan()));
  if (config_.enable_nat) nat_.emplace(kNatPool, config_.nat_seed);
  const auto push_tag = [this](std::uint32_t bs, ClauseId clause,
                               PolicyTag tag) {
    agents_.at(bs)->update_classifier_tag(clause, tag);
  };
  if (fleet_) {
    // Every replica installs the same paths (log replication), so each
    // install fires the push once per replica; update_classifier_tag is
    // idempotent, the duplicates are harmless.
    for (std::size_t i = 0; i < fleet_->replica_count(); ++i)
      fleet_->replica(i).set_classifier_listener(push_tag);
    // Crash rebuild re-queries the base-station agents (section 5.2).
    fleet_->set_location_query(
        [this](const std::function<void(UeId, UeLocation)>& sink) {
          for (const auto& agent : agents_) agent->enumerate_ues(sink);
        });
  } else {
    // Tag changes from quiescent maintenance (migrate_path / recompact on
    // the core) bypass the commit stage; the brain's readers look tags up
    // in the core itself, so only the agents need the push.
    controller_.set_classifier_listener(push_tag);
  }
}

AccessSwitch* SoftCellNetwork::access_by_node(NodeId node) {
  const auto it = node_to_bs_.find(node);
  return it == node_to_bs_.end() ? nullptr : access_.at(it->second).get();
}

std::vector<PacketClassifier> SoftCellNetwork::cp_fetch_classifiers(
    UeId ue, std::uint32_t bs) {
  SC_TRACE_SPAN_ARG("sim.fetch_classifiers", bs);
  if (runtime_) return runtime_->fetch_classifiers(ue, bs);
  return cp_.fetch_classifiers(ue, bs);
}

PolicyTag SoftCellNetwork::cp_request_policy_path(UeId ue, std::uint32_t bs,
                                                  ClauseId clause) {
  SC_TRACE_SPAN_ARG("sim.path_request", bs);
  if (runtime_) return runtime_->request_policy_path(ue, bs, clause);
  return cp_.request_policy_path(bs, clause);
}

UeId SoftCellNetwork::add_subscriber(const SubscriberProfile& profile) {
  const UeId ue(next_ue_++);
  SubscriberProfile p = profile;
  p.ue = ue;
  cp_.provision_subscriber(ue, p);
  permanent_ip_.emplace(ue, kPermanentBase + ue.value());
  return ue;
}

void SoftCellNetwork::attach(UeId ue, std::uint32_t bs) {
  agents_.at(bs)->ue_arrive(ue, permanent_ip_.at(ue));
}

void SoftCellNetwork::detach(UeId ue) {
  const auto loc = cp_.ue_location(ue);
  if (!loc) throw std::invalid_argument("detach: UE not attached");
  agents_.at(loc->bs)->ue_depart(ue);
}

std::optional<std::uint32_t> SoftCellNetwork::serving_bs(UeId ue) const {
  const auto loc = cp_.ue_location(ue);
  if (!loc) return std::nullopt;
  return loc->bs;
}

MobilityManager::HandoffTicket SoftCellNetwork::handoff(UeId ue,
                                                        std::uint32_t new_bs) {
  const auto loc = cp_.ue_location(ue);
  if (!loc) throw std::invalid_argument("handoff: UE not attached");
  if (loc->bs == new_bs)
    throw std::invalid_argument("handoff: already at that base station");
  return mobility_.handoff(ue, *agents_.at(loc->bs), *access_.at(loc->bs),
                           *agents_.at(new_bs));
}

void SoftCellNetwork::complete_handoff(
    const MobilityManager::HandoffTicket& ticket) {
  mobility_.complete(ticket, *agents_.at(ticket.old_bs),
                     *access_.at(ticket.old_bs));
}

SoftCellNetwork::FlowHandle SoftCellNetwork::open_flow(UeId ue,
                                                       Ipv4Addr remote_ip,
                                                       std::uint16_t dst_port) {
  if (topo_.plan().carrier().contains(remote_ip))
    throw std::invalid_argument("open_flow: remote inside the carrier prefix");
  FlowHandle h;
  h.ue = ue;
  h.key = FlowKey{permanent_ip_.at(ue), remote_ip, next_client_port_++,
                  dst_port, IpProto::kTcp};
  flows_.emplace(h.key, FlowState{ue, QosClass::kBestEffort, std::nullopt});
  return h;
}

SoftCellNetwork::Delivery SoftCellNetwork::send_uplink(const FlowHandle& flow,
                                                       TcpFlag flag,
                                                       std::uint32_t payload) {
  Delivery d;
  const auto loc = cp_.ue_location(flow.ue);
  if (!loc) {
    d.drop_reason = "UE not attached";
    return d;
  }
  AccessSwitch& sw = *access_.at(loc->bs);
  Packet pkt;
  pkt.key = flow.key;
  pkt.flag = flag;
  pkt.payload_bytes = payload;
  pkt.uplink = true;

  const MicroflowAction* act = sw.flows().lookup(pkt.key);
  if (act == nullptr) {
    // First packet of the flow: goes to the local agent (section 4.2).
    const auto r = agents_.at(loc->bs)->handle_new_flow(flow.ue, pkt.key);
    if (r.verdict == LocalAgent::FlowVerdict::kDenied) {
      d.drop_reason = "denied by service policy";
      return d;
    }
    if (r.verdict != LocalAgent::FlowVerdict::kInstalled) {
      d.drop_reason = "UE unknown at access switch";
      return d;
    }
    act = sw.flows().lookup(pkt.key);
    flows_.at(flow.key).qos =
        controller_.policy().clause(r.clause).action.qos;
    flows_.at(flow.key).clause = r.clause;
  }
  const QosClass qos = flows_.at(flow.key).qos;
  d.hops.push_back(sw.node());
  if (act->set_src_ip) pkt.key.src_ip = *act->set_src_ip;
  if (act->set_src_port) pkt.key.src_port = *act->set_src_port;
  // The access edge pushes the transit tag from the embedded port bits.
  pkt.transit = codec_.tag_of(pkt.key.src_port);

  Delivery rest = forward(pkt, act->out_to, sw.node(), Direction::kUplink, qos);
  rest.hops.insert(rest.hops.begin(), d.hops.begin(), d.hops.end());
  rest.latency_ms += hop_latency_ms(NodeKind::kAccessSwitch, qos);
  if (rest.delivered)
    flows_.at(flow.key).server_view = rest.final_packet.key.reversed();
  return rest;
}

SoftCellNetwork::M2mFlowHandle SoftCellNetwork::open_m2m_flow(
    UeId a, UeId b, std::uint16_t dst_port) {
  const auto loc_a = cp_.ue_location(a);
  const auto loc_b = cp_.ue_location(b);
  if (!loc_a || !loc_b)
    throw std::invalid_argument("open_m2m_flow: both UEs must be attached");
  if (loc_a->bs == loc_b->bs)
    throw std::invalid_argument(
        "open_m2m_flow: same base station (handled locally, no core path)");

  // Classify by the initiator's profile and the destination application.
  const auto cls = cp_fetch_classifiers(a, loc_a->bs);
  const AppType app = app_from_dst_port(dst_port);
  const PacketClassifier* match = nullptr;
  for (const auto& c : cls)
    if (c.app == app || (match == nullptr && c.app == AppType::kOther))
      if (c.app == app || match == nullptr) match = &c;
  if (match == nullptr || !match->allow)
    throw std::invalid_argument("open_m2m_flow: policy denies this traffic");
  const ClauseId clause = match->clause;
  const QosClass qos = controller_.policy().clause(clause).action.qos;

  // One direct half-path per direction, no gateway detour (section 7).
  const PolicyTag tag_ab =
      cp_.request_m2m_path(loc_a->bs, loc_b->bs, clause);
  const PolicyTag tag_ba =
      cp_.request_m2m_path(loc_b->bs, loc_a->bs, clause);

  const Ipv4Addr a_perm = permanent_ip_.at(a);
  const Ipv4Addr b_perm = permanent_ip_.at(b);
  const Ipv4Addr a_loc = *agents_.at(loc_a->bs)->locip_of(a);
  const Ipv4Addr b_loc = *agents_.at(loc_b->bs)->locip_of(b);

  M2mFlowHandle h;
  h.a = a;
  h.b = b;
  h.key = FlowKey{a_perm, b_perm, next_client_port_++, dst_port, IpProto::kTcp};
  h.qos = qos;

  const std::uint16_t a_port = codec_.encode(tag_ab, 0);
  const std::uint16_t b_port = codec_.encode(tag_ba, 0);

  // Controller-programmed microflow rules at both access edges: outbound
  // rules translate to LocIPs and embed the half-path tag; inbound rules
  // translate back to permanent addresses and deliver.
  MicroflowAction a_out;  // a -> b, at a's switch
  a_out.set_src_ip = a_loc;
  a_out.set_src_port = a_port;
  a_out.set_dst_ip = b_loc;
  a_out.set_dst_port = b_port;
  a_out.out_to = access_.at(loc_a->bs)->uplink_next();
  access_.at(loc_a->bs)->flows().install(h.key, a_out);

  const FlowKey wire_ab{a_loc, b_loc, a_port, b_port, IpProto::kTcp};
  MicroflowAction b_in;  // a -> b, delivery at b's switch
  b_in.set_src_ip = a_perm;
  b_in.set_src_port = h.key.src_port;
  b_in.set_dst_ip = b_perm;
  b_in.set_dst_port = dst_port;
  access_.at(loc_b->bs)->flows().install(wire_ab, b_in);

  MicroflowAction b_out;  // b -> a, at b's switch
  b_out.set_src_ip = b_loc;
  b_out.set_src_port = b_port;
  b_out.set_dst_ip = a_loc;
  b_out.set_dst_port = a_port;
  b_out.out_to = access_.at(loc_b->bs)->uplink_next();
  access_.at(loc_b->bs)->flows().install(h.key.reversed(), b_out);

  const FlowKey wire_ba = wire_ab.reversed();
  MicroflowAction a_in;  // b -> a, delivery at a's switch
  a_in.set_src_ip = b_perm;
  a_in.set_src_port = dst_port;
  a_in.set_dst_ip = a_perm;
  a_in.set_dst_port = h.key.src_port;
  access_.at(loc_a->bs)->flows().install(wire_ba, a_in);

  return h;
}

SoftCellNetwork::Delivery SoftCellNetwork::send_m2m(const M2mFlowHandle& flow,
                                                    bool a_to_b, TcpFlag flag,
                                                    std::uint32_t payload) {
  Delivery d;
  const UeId sender = a_to_b ? flow.a : flow.b;
  const auto loc = cp_.ue_location(sender);
  if (!loc) {
    d.drop_reason = "sender not attached";
    return d;
  }
  AccessSwitch& sw = *access_.at(loc->bs);
  Packet pkt;
  pkt.key = a_to_b ? flow.key : flow.key.reversed();
  pkt.flag = flag;
  pkt.payload_bytes = payload;
  pkt.uplink = a_to_b;  // orientation for stateful middleboxes

  const MicroflowAction* act = sw.flows().lookup(pkt.key);
  if (act == nullptr) {
    d.drop_reason = "no m2m microflow rule at sender";
    return d;
  }
  d.hops.push_back(sw.node());
  if (act->set_src_ip) pkt.key.src_ip = *act->set_src_ip;
  if (act->set_src_port) pkt.key.src_port = *act->set_src_port;
  if (act->set_dst_ip) pkt.key.dst_ip = *act->set_dst_ip;
  if (act->set_dst_port) pkt.key.dst_port = *act->set_dst_port;
  pkt.transit = codec_.tag_of(pkt.key.src_port);

  // M2M forwarding matches destination fields end to end.
  Delivery rest =
      forward(pkt, act->out_to, sw.node(), Direction::kDownlink, flow.qos);
  rest.hops.insert(rest.hops.begin(), d.hops.begin(), d.hops.end());
  rest.latency_ms += hop_latency_ms(NodeKind::kAccessSwitch, flow.qos);
  return rest;
}

SoftCellNetwork::Delivery SoftCellNetwork::send_downlink(
    const FlowHandle& flow, TcpFlag flag, std::uint32_t payload) {
  Delivery d;
  const auto it = flows_.find(flow.key);
  if (it == flows_.end() || !it->second.server_view) {
    d.drop_reason = "server never saw this flow";
    return d;
  }
  Packet pkt;
  pkt.key = *it->second.server_view;
  pkt.flag = flag;
  pkt.payload_bytes = payload;
  pkt.uplink = false;
  return forward(pkt, topo_.gateway(), topo_.internet(), Direction::kDownlink,
                 it->second.qos);
}

SoftCellNetwork::Delivery SoftCellNetwork::forward(Packet pkt, NodeId cur,
                                                   NodeId in, Direction dir,
                                                   QosClass qos) {
  Delivery d;
  const bool up = dir == Direction::kUplink;
  const Graph& g = topo_.graph();

  for (int hop = 0; hop < kHopLimit; ++hop) {
    d.hops.push_back(cur);
    const NodeKind kind = g.kind(cur);
    d.latency_ms += hop_latency_ms(kind, qos);

    if (kind == NodeKind::kInternet) {
      if (!up) {
        d.drop_reason = "downlink packet escaped to the Internet";
        return d;
      }
      if (const auto sit = services_rev_.find(
              endpoint_key(pkt.key.src_ip, pkt.key.src_port));
          sit != services_rev_.end()) {
        // Public-service reply: restore the stable public endpoint the
        // remote host connected to (no per-flow NAT for these).
        pkt.key.src_ip = sit->second.public_ip;
        pkt.key.src_port = sit->second.public_port;
        d.delivered = true;
        d.final_packet = pkt;
        return d;
      }
      if (nat_) {
        const FlowKey internal = pkt.key;
        const auto pub = nat_->translate_outbound(internal);
        pkt.key.src_ip = pub.ip;
        pkt.key.src_port = pub.port;
        if (pkt.flag == TcpFlag::kFin) nat_->release(internal);
      }
      d.delivered = true;
      d.final_packet = pkt;
      return d;
    }

    if (kind == NodeKind::kMiddlebox) {
      d.middlebox_sequence.push_back(cur);
      if (!middleboxes_.at(cur)->process(pkt)) {
        d.drop_reason = "dropped by middlebox";
        return d;
      }
      const NodeId host = g.neighbors(cur).front();
      in = cur;
      cur = host;
      continue;
    }

    if (kind == NodeKind::kAccessSwitch) {
      AccessSwitch* sw = access_by_node(cur);
      if (sw == nullptr) {
        d.drop_reason = "unknown access switch";
        return d;
      }
      if (!up) {
        if (const MicroflowAction* act = sw->flows().lookup(pkt.key)) {
          if (act->set_src_ip) pkt.key.src_ip = *act->set_src_ip;
          if (act->set_src_port) pkt.key.src_port = *act->set_src_port;
          if (act->set_dst_ip) pkt.key.dst_ip = *act->set_dst_ip;
          if (act->set_dst_port) pkt.key.dst_port = *act->set_dst_port;
          d.delivered = true;
          d.final_packet = pkt;
          return d;
        }
        if (const auto sit = services_rev_.find(
                endpoint_key(pkt.key.dst_ip, pkt.key.dst_port));
            sit != services_rev_.end() &&
            sit->second.bs == sw->bs_index()) {
          // Coarse service rule (installed once when the service was
          // exposed): translate back to the permanent address and deliver;
          // learn the reply microflow locally so the UE's answers follow
          // the same policy path.
          const ServiceEntry& e = sit->second;
          FlowKey reply{e.perm_ip, pkt.key.src_ip, e.service_port,
                        pkt.key.src_port, pkt.key.proto};
          MicroflowAction out;
          out.set_src_ip = e.locip;
          out.set_src_port = e.tagged_port;
          out.out_to = sw->uplink_next();
          sw->flows().install(reply, out);
          pkt.key.dst_ip = e.perm_ip;
          pkt.key.dst_port = e.service_port;
          d.delivered = true;
          d.final_packet = pkt;
          return d;
        }
        if (const auto tun = sw->tunnel_for(pkt.key.dst_ip)) {
          // BS-to-BS mobility tunnel: encapsulated hop to the new switch.
          d.tunneled = true;
          in = cur;
          cur = *tun;
          continue;
        }
        const auto hit = fwd_engine().table(cur).lookup(
            dir, in, pkt.transit, pkt.key.dst_ip);
        if (!hit) {
          d.drop_reason = "no rule at access switch";
          return d;
        }
        if (hit->action.set_tag) pkt.transit = *hit->action.set_tag;
        in = cur;
        cur = hit->action.out_to;
        continue;
      }
      // Uplink ring transit: one static default toward the fabric.
      in = cur;
      cur = sw->uplink_next();
      continue;
    }

    // Fabric switch (agg / core / gateway).
    if (!up && kind == NodeKind::kGatewaySwitch &&
        g.kind(in) == NodeKind::kInternet) {
      if (nat_) {
        const auto internal = nat_->translate_inbound(
            PublicEndpoint{pkt.key.dst_ip, pkt.key.dst_port});
        if (!internal) {
          d.drop_reason = "NAT: unsolicited inbound flow";
          return d;
        }
        const FlowKey down = internal->reversed();
        pkt.key.dst_ip = down.dst_ip;
        pkt.key.dst_port = down.dst_port;
      }
      if (kPublicPool.contains(pkt.key.dst_ip)) {
        // Public-IP option (section 7): the gateway acts like an access
        // switch, applying its coarse once-installed classifier.
        const auto sit =
            services_.find(endpoint_key(pkt.key.dst_ip, pkt.key.dst_port));
        if (sit == services_.end()) {
          d.drop_reason = "no gateway classifier for public destination";
          return d;
        }
        pkt.key.dst_ip = sit->second.locip;
        pkt.key.dst_port = sit->second.tagged_port;
      }
      // The gateway pushes the transit tag from the piggybacked dst port.
      pkt.transit = codec_.tag_of(pkt.key.dst_port);
    }
    const Ipv4Addr addr = up ? pkt.key.src_ip : pkt.key.dst_ip;
    auto hit =
        fwd_engine().table(cur).lookup(dir, in, pkt.transit, addr);
    // Multi-table resubmit: re-match at this switch with the rewritten tag.
    for (int depth = 0; hit && hit->action.resubmit; ++depth) {
      if (depth > 4) {
        d.drop_reason = "resubmit loop at " + std::to_string(cur.value());
        return d;
      }
      if (hit->action.set_tag) pkt.transit = *hit->action.set_tag;
      hit = fwd_engine().table(cur).lookup(dir, in, pkt.transit, addr);
    }
    if (!hit) {
      d.drop_reason = "no rule at fabric switch " + std::to_string(cur.value());
      return d;
    }
    if (hit->action.set_tag) pkt.transit = *hit->action.set_tag;
    in = cur;
    cur = hit->action.out_to;
  }
  d.drop_reason = "hop limit exceeded";
  return d;
}

SoftCellNetwork::PublicService SoftCellNetwork::expose_service(
    UeId ue, std::uint16_t service_port) {
  const auto loc = cp_.ue_location(ue);
  if (!loc) throw std::invalid_argument("expose_service: UE not attached");

  // Classify by the UE's profile and the service's application class; the
  // policy path is installed once, when the service is exposed.
  const auto cls = cp_fetch_classifiers(ue, loc->bs);
  const AppType app = app_from_dst_port(service_port);
  const PacketClassifier* match = nullptr;
  for (const auto& c : cls) {
    if (c.app == app) {
      match = &c;
      break;
    }
    if (c.app == AppType::kOther) match = &c;
  }
  if (match == nullptr || !match->allow)
    throw std::invalid_argument("expose_service: policy denies this traffic");
  const PolicyTag tag =
      cp_request_policy_path(ue, loc->bs, match->clause);

  ServiceEntry e;
  e.ue = ue;
  e.bs = loc->bs;
  e.public_ip = kPublicPool.addr() | (ue.value() & 0xFFu);
  e.public_port = service_port;
  e.locip = *agents_.at(loc->bs)->locip_of(ue);
  // One stable tagged port per service: coarse, installed once.
  e.tagged_port = codec_.encode(
      tag, static_cast<std::uint16_t>(service_port %
                                      codec_.max_flows_per_ue()));
  e.perm_ip = permanent_ip_.at(ue);
  e.service_port = service_port;
  services_[endpoint_key(e.public_ip, e.public_port)] = e;
  services_rev_[endpoint_key(e.locip, e.tagged_port)] = e;

  // Program pinholes on the clause's firewall instances so
  // Internet-initiated connections toward the published endpoint pass.
  for (const NodeId mb : cp_.select_instances(loc->bs, match->clause))
    if (auto* fw = dynamic_cast<StatefulFirewall*>(middleboxes_.at(mb).get()))
      fw->publish(e.locip, e.tagged_port);

  return PublicService{e.public_ip, e.public_port};
}

SoftCellNetwork::Delivery SoftCellNetwork::send_inbound(
    const PublicService& service, Ipv4Addr remote_ip,
    std::uint16_t remote_port, TcpFlag flag, std::uint32_t payload) {
  Delivery d;
  const auto it = services_.find(endpoint_key(service.public_ip, service.port));
  if (it == services_.end()) {
    d.drop_reason = "no such public service";
    return d;
  }
  Packet pkt;
  pkt.key = FlowKey{remote_ip, service.public_ip, remote_port, service.port,
                    IpProto::kTcp};
  pkt.flag = flag;
  pkt.payload_bytes = payload;
  pkt.uplink = false;
  return forward(pkt, topo_.gateway(), topo_.internet(), Direction::kDownlink);
}

SoftCellNetwork::Delivery SoftCellNetwork::send_service_reply(
    const PublicService& service, Ipv4Addr remote_ip,
    std::uint16_t remote_port, TcpFlag flag, std::uint32_t payload) {
  Delivery d;
  const auto it = services_.find(endpoint_key(service.public_ip, service.port));
  if (it == services_.end()) {
    d.drop_reason = "no such public service";
    return d;
  }
  const ServiceEntry& e = it->second;
  const auto loc = cp_.ue_location(e.ue);
  if (!loc) {
    d.drop_reason = "served UE not attached";
    return d;
  }
  AccessSwitch& sw = *access_.at(loc->bs);
  Packet pkt;
  pkt.key = FlowKey{e.perm_ip, remote_ip, e.service_port, remote_port,
                    IpProto::kTcp};
  pkt.flag = flag;
  pkt.payload_bytes = payload;
  pkt.uplink = true;

  const MicroflowAction* act = sw.flows().lookup(pkt.key);
  if (act == nullptr) {
    d.drop_reason = "no reply microflow rule (no inbound packet seen yet)";
    return d;
  }
  d.hops.push_back(sw.node());
  if (act->set_src_ip) pkt.key.src_ip = *act->set_src_ip;
  if (act->set_src_port) pkt.key.src_port = *act->set_src_port;
  pkt.transit = codec_.tag_of(pkt.key.src_port);
  Delivery rest = forward(pkt, act->out_to, sw.node(), Direction::kUplink);
  rest.hops.insert(rest.hops.begin(), d.hops.begin(), d.hops.end());
  return rest;
}

void SoftCellNetwork::fail_controller_primary_and_recover() {
  if (fleet_) {
    fleet_->fail_primary_and_recover();
    return;
  }
  // Fails the core store AND every shard store (same replica budget per
  // store as a single Controller's), then rebuilds each shard's locations
  // from the agents it owns.
  brain_->fail_primary_replica();
  brain_->rebuild_locations(
      [this](const std::function<void(UeId, UeLocation)>& sink) {
        for (const auto& agent : agents_) agent->enumerate_ues(sink);
      });
}

void SoftCellNetwork::restart_agent(std::uint32_t bs) {
  agents_.at(bs)->restart();
}

}  // namespace softcell
