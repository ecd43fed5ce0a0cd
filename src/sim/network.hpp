// SoftCellNetwork: the whole system wired together.
//
// Binds the topology, the aggregation engine (via the controller), the
// per-base-station local agents and access switches, the behavioural
// middleboxes, the mobility manager, and an optional carrier-grade NAT at
// the gateway -- then actually forwards packets hop by hop through the
// installed rules.  This is the integration harness behind the examples and
// the end-to-end/property tests: every architectural claim of the paper
// (asymmetric edge, state embedding, policy consistency under mobility,
// controller/agent failover) is observable here as packet behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "agent/local_agent.hpp"
#include "cluster/fleet.hpp"
#include "ctrl/controller.hpp"
#include "mbox/middlebox.hpp"
#include "mobility/handoff.hpp"
#include "ofp/mirror.hpp"
#include "packet/nat.hpp"
#include "runtime/runtime.hpp"
#include "runtime/shard_brain.hpp"
#include "topo/cellular.hpp"

namespace softcell {

struct SoftCellConfig {
  CellularTopoParams topo{.k = 4};
  ControllerOptions controller;
  std::uint8_t tag_bits = 10;  // Fig. 4 source-port split
  MobilityOptions mobility;
  bool enable_nat = false;     // per-flow NAT at the gateway (section 4.1)
  std::uint64_t nat_seed = 7;
  // > 0: route classifier-fetch and policy-path requests through a
  // ControlPlaneRuntime with this many workers (src/runtime/) instead of
  // calling the controller inline -- the sim exercises the same pipeline
  // the scaling bench measures (coalescing, metrics, shard affinity).
  // 0 (default): inline calls, byte-for-byte the pre-runtime behaviour.
  unsigned runtime_workers = 0;
  // Shard count of the partitioned brain (runtime/shard_brain.hpp).
  // 0: the brain default (4).  Rejected in fleet mode, where the fleet
  // partitions by serving bs instead.
  unsigned runtime_shards = 0;
  // Subscribe an ofp::Mirror to the controller's engine: every rule
  // mutation is serialized as a flow-mod and replayed into per-switch
  // agents on mirror()->sync().  The chaos harness uses this (with wire
  // faults armed) to check switch-table equivalence under churn.
  bool attach_mirror = false;
  // > 0: replace the single controller with a cluster::ControllerFleet of
  // this many replicas -- partitioned UE ownership, leader leases, crash
  // rebuild (src/cluster/).  Incompatible with runtime_workers (the
  // pipeline shards by UE, the fleet by serving bs; composing them is
  // future work).  Mobility shortcuts are forced off in fleet mode: the
  // shortcut machinery drives one concrete Controller, and the fleet may
  // serve a handoff from a different replica.
  unsigned cluster_controllers = 0;
};

class SoftCellNetwork {
 public:
  SoftCellNetwork(SoftCellConfig config, ServicePolicy policy);

  // --- subscribers & attachment ------------------------------------------------
  // Provisions a subscriber and assigns its permanent IP address.
  UeId add_subscriber(const SubscriberProfile& profile);
  void attach(UeId ue, std::uint32_t bs);
  void detach(UeId ue);
  [[nodiscard]] std::optional<std::uint32_t> serving_bs(UeId ue) const;

  // --- mobility ------------------------------------------------------------------
  MobilityManager::HandoffTicket handoff(UeId ue, std::uint32_t new_bs);
  void complete_handoff(const MobilityManager::HandoffTicket& ticket);

  // --- traffic ---------------------------------------------------------------------
  struct FlowHandle {
    UeId ue{};
    FlowKey key;  // uplink key with the UE's permanent address
  };
  // Starts a flow toward an Internet endpoint (dst addr must be outside the
  // carrier prefix).
  FlowHandle open_flow(UeId ue, Ipv4Addr remote_ip, std::uint16_t dst_port);

  struct Delivery {
    bool delivered = false;
    std::string drop_reason;
    std::vector<NodeId> hops;                // node walk, middleboxes included
    std::vector<NodeId> middlebox_sequence;  // instances traversed, in order
    bool tunneled = false;                   // took the BS-BS mobility tunnel
    double latency_ms = 0;                   // modelled one-way latency
    Packet final_packet;                     // headers as seen at the sink
  };
  Delivery send_uplink(const FlowHandle& flow, TcpFlag flag = TcpFlag::kNone,
                       std::uint32_t payload = 1000);
  // The Internet side replies to whatever endpoint it last saw.
  Delivery send_downlink(const FlowHandle& flow,
                         TcpFlag flag = TcpFlag::kNone,
                         std::uint32_t payload = 1000);

  // --- mobile-to-mobile traffic (paper section 7) -----------------------------
  // Opens a flow between two attached UEs of this core network.  The
  // controller installs one direct half-path per direction (no gateway);
  // the initiator's policy clause (matched on the destination port's
  // application) applies to both directions.
  struct M2mFlowHandle {
    UeId a{};
    UeId b{};
    FlowKey key;  // permanent-address 5-tuple, a -> b orientation
    QosClass qos = QosClass::kBestEffort;
  };
  M2mFlowHandle open_m2m_flow(UeId a, UeId b, std::uint16_t dst_port);
  Delivery send_m2m(const M2mFlowHandle& flow, bool a_to_b,
                    TcpFlag flag = TcpFlag::kNone, std::uint32_t payload = 1000);

  // --- Internet-initiated traffic (paper section 7, public IP option) ---------
  // Exposes a UE service on a public address.  The gateway is programmed
  // once with a coarse classifier (public endpoint -> LocIP + tagged port);
  // it then acts like an access switch for inbound traffic, with no
  // per-microflow controller involvement.
  struct PublicService {
    Ipv4Addr public_ip = 0;
    std::uint16_t port = 0;
  };
  PublicService expose_service(UeId ue, std::uint16_t service_port);
  // A packet from an arbitrary Internet host toward the public endpoint.
  Delivery send_inbound(const PublicService& service, Ipv4Addr remote_ip,
                        std::uint16_t remote_port,
                        TcpFlag flag = TcpFlag::kNone,
                        std::uint32_t payload = 1000);
  // The served UE's reply to that host.
  Delivery send_service_reply(const PublicService& service, Ipv4Addr remote_ip,
                              std::uint16_t remote_port,
                              TcpFlag flag = TcpFlag::kNone,
                              std::uint32_t payload = 1000);

  // --- failure injection -----------------------------------------------------------
  void fail_controller_primary_and_recover();
  void restart_agent(std::uint32_t bs);

  // --- introspection -----------------------------------------------------------------
  [[nodiscard]] const CellularTopology& topology() const { return topo_; }
  // In fleet mode this is replica 0 (the mirror's pinned engine source);
  // in shard-brain mode it is the brain's shared core controller.
  // Control-plane traffic goes through cp_, not this reference.
  [[nodiscard]] Controller& controller() { return controller_; }
  [[nodiscard]] const Controller& controller() const { return controller_; }
  // The partitioned brain, or nullptr in fleet mode.
  [[nodiscard]] ShardBrain* brain() { return brain_.get(); }
  [[nodiscard]] const ShardBrain* brain() const { return brain_.get(); }
  // Control-plane state hash: the brain folds its per-shard store writes
  // and attachments into the core fingerprint (ShardBrain::
  // state_fingerprint); in fleet mode it is replica 0's fingerprint.
  [[nodiscard]] std::uint64_t control_fingerprint() const {
    if (brain_) return brain_->state_fingerprint();
    return controller_.state_fingerprint();
  }
  // The controller fleet, or nullptr when cluster_controllers == 0.
  [[nodiscard]] cluster::ControllerFleet* fleet() { return fleet_.get(); }
  [[nodiscard]] const cluster::ControllerFleet* fleet() const {
    return fleet_.get();
  }
  // The runtime pipeline, or nullptr when runtime_workers == 0.
  [[nodiscard]] ControlPlaneRuntime* runtime() { return runtime_.get(); }
  // The flow-mod mirror, or nullptr when attach_mirror == false.
  [[nodiscard]] ofp::Mirror* mirror() { return mirror_.get(); }
  [[nodiscard]] LocalAgent& agent(std::uint32_t bs) { return *agents_.at(bs); }
  [[nodiscard]] AccessSwitch& access(std::uint32_t bs) {
    return *access_.at(bs);
  }
  [[nodiscard]] Middlebox& middlebox(NodeId node) {
    return *middleboxes_.at(node);
  }
  [[nodiscard]] const PortCodec& codec() const { return codec_; }
  [[nodiscard]] const AddressPlan& plan() const { return topo_.plan(); }
  // Middlebox instances a flow of this clause from this bs must traverse.
  [[nodiscard]] std::vector<NodeId> expected_middleboxes(
      std::uint32_t bs, ClauseId clause) const {
    return cp_.select_instances(bs, clause);
  }
  // The policy clause a flow was admitted under (set on its first delivered
  // uplink packet); nullopt before admission or for unknown flows.
  [[nodiscard]] std::optional<ClauseId> flow_clause(const FlowKey& key) const {
    const auto it = flows_.find(key);
    return it == flows_.end() ? std::nullopt : it->second.clause;
  }
  [[nodiscard]] std::size_t gateway_flow_state() const {
    return nat_ ? nat_->active_flows() : 0;
  }

 private:
  struct FlowState {
    UeId ue{};
    QosClass qos = QosClass::kBestEffort;
    std::optional<FlowKey> server_view;  // reversed header the server replies with
    std::optional<ClauseId> clause;      // set when the microflow is installed
  };

  Delivery forward(Packet pkt, NodeId cur, NodeId in, Direction dir,
                   QosClass qos = QosClass::kBestEffort);
  [[nodiscard]] AccessSwitch* access_by_node(NodeId node);

  // The rule universe packets are matched against: the single controller's
  // engine, or -- in fleet mode -- the first usable replica's (all usable
  // replicas hold identical engines; see ControllerFleet).
  [[nodiscard]] const AggregationEngine& fwd_engine() const {
    return fleet_ ? fleet_->forwarding_engine() : controller_.engine();
  }

  // Control-plane entry points used by the harness: routed through the
  // runtime pipeline when configured, inline otherwise.
  std::vector<PacketClassifier> cp_fetch_classifiers(UeId ue,
                                                     std::uint32_t bs);
  PolicyTag cp_request_policy_path(UeId ue, std::uint32_t bs,
                                   ClauseId clause);

  SoftCellConfig config_;
  CellularTopology topo_;
  PortCodec codec_;
  // Fleet or brain, exactly one non-null.  The packet-forwarding walk
  // needs a single rule universe: by default that is the brain's core
  // controller (N ShardEngines own the per-UE state, one CoreCommitter
  // serializes installs into the shared core); in fleet mode the replicas
  // do the work and replica 0 is the mirror's engine source.
  std::unique_ptr<ShardBrain> brain_;
  std::unique_ptr<cluster::ControllerFleet> fleet_;
  Controller& controller_;  // brain core, or fleet replica 0
  ControlPlane& cp_;        // where control-plane calls actually go
  std::unique_ptr<ControlPlaneRuntime> runtime_;
  std::unique_ptr<ofp::Mirror> mirror_;
  MobilityManager mobility_;
  std::vector<std::unique_ptr<AccessSwitch>> access_;   // by bs index
  std::vector<std::unique_ptr<LocalAgent>> agents_;     // by bs index
  std::unordered_map<NodeId, std::uint32_t> node_to_bs_;
  std::unordered_map<NodeId, std::unique_ptr<Middlebox>> middleboxes_;
  std::optional<FlowNat> nat_;

  struct ServiceEntry {
    UeId ue{};
    std::uint32_t bs = 0;
    Ipv4Addr public_ip = 0;
    std::uint16_t public_port = 0;
    Ipv4Addr locip = 0;
    std::uint16_t tagged_port = 0;
    Ipv4Addr perm_ip = 0;
    std::uint16_t service_port = 0;
  };
  static std::uint64_t endpoint_key(Ipv4Addr ip, std::uint16_t port) {
    return (static_cast<std::uint64_t>(ip) << 16) | port;
  }
  std::unordered_map<std::uint64_t, ServiceEntry> services_;      // public side
  std::unordered_map<std::uint64_t, ServiceEntry> services_rev_;  // LocIP side

  std::unordered_map<UeId, Ipv4Addr> permanent_ip_;
  std::unordered_map<FlowKey, FlowState> flows_;
  std::uint32_t next_ue_ = 1;
  std::uint16_t next_client_port_ = 40000;
};

}  // namespace softcell
