// The local software agent running at each base station (section 4.2).
//
// The agent caches per-UE packet classifiers fetched from the central
// controller and handles new flows locally: on a flow's first packet it
// consults the cached classifiers, and
//   * on a cache hit (the policy path already exists) installs the microflow
//     rules in the access switch without contacting the controller;
//   * on a miss, asks the controller to install the policy path, updates the
//     classifier, and then installs the microflow rules.
// This hierarchical split is what keeps the central controller off the
// per-flow fast path (evaluated in section 6.2 / Table 2).
//
// Agent state (classifiers + LocIP assignments) is read-only to the agent --
// only the controller writes it -- so agent failure is recovered by a
// restart that refetches everything (section 5.2).
//
// Storage layout (DESIGN.md section 15): UE records live in a
// mem::SlabMap and per-UE flow slots in one agent-wide mem::Slab threaded
// into per-UE intrusive lists -- two contiguous arenas instead of a node
// map of node maps.  Digest-sensitive walks (active_flows) are canonically
// sorted, so no observable depends on slab slot order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "agent/access_switch.hpp"
#include "ctrl/controller.hpp"
#include "mem/slab_map.hpp"
#include "packet/locip.hpp"
#include "packet/packet.hpp"
#include "util/flat_map.hpp"

namespace softcell {

class LocalAgent {
 public:
  // The agent programs against the ControlPlane surface only, so the same
  // code serves a single Controller and a cluster::ControllerFleet.
  LocalAgent(std::uint32_t bs_index, AddressPlan plan, PortCodec codec,
             ControlPlane& controller, AccessSwitch& access);

  // --- UE lifecycle ----------------------------------------------------------
  // Assigns a local UE id + LocIP, registers with the controller, and caches
  // the UE's packet classifiers.  Returns the assigned LocIP.
  Ipv4Addr ue_arrive(UeId ue, Ipv4Addr permanent_ip);
  void ue_depart(UeId ue);
  [[nodiscard]] bool has_ue(UeId ue) const { return ues_.contains(ue); }
  [[nodiscard]] std::size_t attached_ues() const { return ues_.size(); }
  [[nodiscard]] std::optional<Ipv4Addr> locip_of(UeId ue) const;
  [[nodiscard]] std::optional<Ipv4Addr> permanent_ip_of(UeId ue) const;
  [[nodiscard]] std::optional<LocalUeId> local_of(UeId ue) const;

  // Active flows of a UE with the tag/clause each was classified to (used
  // by the mobility manager to set up per-flow shortcuts).  Sorted by flow
  // key: the shortcut pass pairs each distinct tag with the first flow it
  // sees, so the order must not depend on slab slot reuse.
  struct ActiveFlow {
    FlowKey key;
    PolicyTag tag{};
    ClauseId clause{};
  };
  [[nodiscard]] std::vector<ActiveFlow> active_flows(UeId ue) const;

  // --- flow handling -----------------------------------------------------------
  enum class FlowVerdict : std::uint8_t {
    kInstalled,       // microflow rules installed, packet may proceed
    kDenied,          // policy forbids this traffic
    kUnknownUe,       // UE not attached here
  };
  struct FlowResult {
    FlowVerdict verdict = FlowVerdict::kUnknownUe;
    PolicyTag tag{};
    ClauseId clause{};
    bool cache_hit = false;
  };
  // Handles the first uplink packet of a new flow from `ue` (keyed by the
  // UE's permanent address).
  FlowResult handle_new_flow(UeId ue, const FlowKey& flow);

  // Controller push: a policy path's tag changed (consistent migration) --
  // update every cached classifier for that clause.
  void update_classifier_tag(ClauseId clause, PolicyTag tag);

  // Reroutes the cache-miss controller round-trip (e.g. through the
  // ControlPlaneRuntime pipeline, which runs it on the UE's shard worker
  // and records latency).  Unset: the agent calls its controller directly.
  using PathRequester =
      std::function<PolicyTag(UeId ue, std::uint32_t bs, ClauseId clause)>;
  void set_path_requester(PathRequester requester) {
    path_requester_ = std::move(requester);
  }

  // --- mobility support ---------------------------------------------------------
  // Adopts a UE arriving by handoff: keeps the permanent IP, assigns a new
  // local id, and copies the old access switch's microflow rules so ongoing
  // flows keep their old LocIP (section 5.1).  With chained handoffs a UE
  // may have rules under several historic LocIPs; all of them move.
  // Returns the new LocIP and fills `moved_locips` with every old LocIP
  // that still has live downlink rules (each needs a tunnel at the old
  // switch).
  Ipv4Addr ue_handoff_in(UeId ue, Ipv4Addr permanent_ip,
                         const AccessSwitch& old_access,
                         std::vector<Ipv4Addr>* moved_locips = nullptr);
  // Releases a UE that moved away but keeps its local id quarantined until
  // release_quarantine() (the controller must not reassign the old LocIP
  // while old flows are alive).
  void ue_handoff_out(UeId ue);
  void release_quarantine(LocalUeId id);
  [[nodiscard]] std::size_t quarantined() const { return quarantine_.size(); }

  // --- failure recovery ------------------------------------------------------
  // Wipes all soft state and refetches it from the controller; microflow
  // rules in the access switch survive (the switch is a separate box).
  void restart();

  // Controller failover support: enumerate attached UEs (section 5.2).
  void enumerate_ues(
      const std::function<void(UeId, UeLocation)>& fn) const;

  // --- stats --------------------------------------------------------------------
  [[nodiscard]] std::uint64_t cache_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return misses_; }

  // Resident footprint of the agent's UE/flow state (million-UE bench;
  // excludes the access switch's own tables).
  [[nodiscard]] std::size_t bytes_resident() const;

  [[nodiscard]] const AccessSwitch& access() const { return *access_; }

 private:
  struct FlowEntry {
    std::uint16_t slot = 0;
    FlowKey down_key;  // translated reverse flow (downlink rule key)
    PolicyTag tag{};
    ClauseId clause{};
  };
  // One record in the agent-wide flow slab, linked per UE.
  struct FlowRec {
    FlowKey key;  // uplink key (needed to unlink from flow_index_)
    FlowEntry entry;
    mem::Handle next;  // next flow of the same UE
  };

  struct UeState {
    LocalUeId local{};
    Ipv4Addr permanent_ip = 0;
    std::vector<PacketClassifier> classifiers;
    std::uint16_t next_slot = 0;
    mem::Handle flow_head;  // newest flow record of this UE
    std::uint32_t flow_count = 0;
  };

  LocalUeId alloc_local_id();
  const PacketClassifier* classify(const UeState& st, AppType app) const;
  void install_microflow(UeState& st, const FlowKey& flow, PolicyTag tag,
                         ClauseId clause);
  // Frees a departing UE's flow records.  Does NOT touch the access switch.
  void release_flow_records(UeState& st);

  std::uint32_t bs_index_;
  AddressPlan plan_;
  PortCodec codec_;
  ControlPlane* controller_;
  AccessSwitch* access_;
  PathRequester path_requester_;

  mem::SlabMap<UeId, UeState> ues_;
  mem::Slab<FlowRec> flow_slab_;
  FlatMap<FlowKey, mem::Handle> flow_index_;  // uplink key -> flow record
  FlatSet<LocalUeId> used_ids_;
  FlatSet<LocalUeId> quarantine_;
  std::uint16_t next_id_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace softcell
