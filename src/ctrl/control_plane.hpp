// The control-plane surface local agents and the simulation harness program
// against.  A single Controller implements it directly; a
// cluster::ControllerFleet implements it by routing every call to the
// replica that currently owns the UE's partition (src/cluster/fleet.hpp).
//
// The interface is exactly the set of operations a base station needs from
// "the controller" (sections 4.2, 5.2, 7): subscriber provisioning, UE
// lifecycle, classifier fetch, and path requests.  Everything else on
// Controller (migrations, recompaction, engine access) is introspection or
// maintenance and stays on the concrete class -- fleet members expose it
// per replica.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ctrl/store.hpp"
#include "policy/policy.hpp"
#include "util/ids.hpp"

namespace softcell {

// A UE-specific packet classifier, cached by local agents (section 4.2).
// Matches on the application (i.e. its well-known destination ports;
// kOther acts as the wildcard classifier) and yields either a ready policy
// tag or "send to controller" when the policy path is not installed yet.
struct PacketClassifier {
  AppType app = AppType::kOther;
  ClauseId clause{};
  bool allow = true;
  std::optional<PolicyTag> tag;  // nullopt => path not installed yet
};

// Compiles a UE's classifiers: one per application type, the UE-specific
// instantiation of the service policy (section 4.2); kOther doubles as the
// wildcard.  tag_of(ClauseId) -> std::optional<PolicyTag> resolves an
// allowed clause's installed path tag (nullopt if not installed yet).
template <typename TagOf>
std::vector<PacketClassifier> compile_classifiers(
    const ServicePolicy& policy, const SubscriberProfile& profile,
    TagOf&& tag_of) {
  std::vector<PacketClassifier> out;
  for (AppType app : {AppType::kWeb, AppType::kVideo, AppType::kVoip,
                      AppType::kM2mTelemetry, AppType::kOther}) {
    const PolicyClause* clause = policy.match(profile, app);
    if (clause == nullptr) {
      out.push_back(PacketClassifier{app, ClauseId{}, false, std::nullopt});
      continue;
    }
    PacketClassifier c;
    c.app = app;
    c.clause = clause->id;
    c.allow = clause->action.allow;
    if (c.allow) c.tag = tag_of(clause->id);
    out.push_back(c);
  }
  return out;
}

class ControlPlane {
 public:
  virtual ~ControlPlane() = default;

  // --- provisioning (slow state) -------------------------------------------
  virtual void provision_subscriber(UeId ue,
                                    const SubscriberProfile& profile) = 0;

  // --- UE lifecycle (fast state, called by local agents) -------------------
  virtual void attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) = 0;
  virtual void detach_ue(UeId ue) = 0;
  virtual void update_location(UeId ue, std::uint32_t bs, LocalUeId local) = 0;
  [[nodiscard]] virtual std::optional<UeLocation> ue_location(UeId ue)
      const = 0;

  // --- per-UE policy (slow state reads / path installs) --------------------
  [[nodiscard]] virtual std::vector<PacketClassifier> fetch_classifiers(
      UeId ue, std::uint32_t bs) const = 0;
  virtual PolicyTag request_policy_path(std::uint32_t bs, ClauseId clause) = 0;
  virtual PolicyTag request_m2m_path(std::uint32_t src_bs,
                                     std::uint32_t dst_bs,
                                     ClauseId clause) = 0;
  [[nodiscard]] virtual std::vector<NodeId> select_instances(
      std::uint32_t bs, ClauseId clause) const = 0;
};

}  // namespace softcell
