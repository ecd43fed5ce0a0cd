// ControlBrain: the control-plane state partition the runtime pipeline
// drives.
//
// The implementation is ShardBrain (runtime/shard_brain.hpp): N
// ShardEngines (per-shard UE/classifier state) over ONE shared rule
// universe, with every cross-shard install serialized through the
// CoreCommitter's single-writer commit stage and every tag read straight
// from the core's installed-path map.  The interface stays virtual so a
// caller can wrap the brain -- a decorator that times or traces every
// call -- without the pipeline knowing.
//
// The pipeline (ControlPlaneRuntime) routes by shard_of(ue), executes on
// the worker owning that shard, and records per-shard metrics through this
// interface.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ctrl/controller.hpp"
#include "runtime/metrics.hpp"

namespace softcell {

class ControlBrain {
 public:
  virtual ~ControlBrain() = default;

  [[nodiscard]] virtual std::size_t shard_count() const = 0;
  [[nodiscard]] virtual std::size_t shard_of(UeId ue) const = 0;

  // --- UE-keyed request API (routes to the owning shard) --------------------
  virtual void provision_subscriber(UeId ue,
                                    const SubscriberProfile& profile) = 0;
  virtual void attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) = 0;
  virtual void detach_ue(UeId ue) = 0;
  virtual void update_location(UeId ue, std::uint32_t bs, LocalUeId local) = 0;
  [[nodiscard]] virtual std::optional<UeLocation> ue_location(
      UeId ue) const = 0;
  [[nodiscard]] virtual std::vector<PacketClassifier> fetch_classifiers(
      UeId ue, std::uint32_t bs) const = 0;
  virtual PolicyTag request_policy_path(UeId ue, std::uint32_t bs,
                                        ClauseId clause) = 0;
  virtual std::vector<PolicyTag> request_policy_paths(
      UeId ue, std::span<const Controller::PathRequest> requests) = 0;
  virtual PolicyTag request_m2m_path(UeId src_ue, std::uint32_t src_bs,
                                     std::uint32_t dst_bs,
                                     ClauseId clause) = 0;

  // --- metrics --------------------------------------------------------------
  [[nodiscard]] virtual ShardMetrics& metrics(std::size_t shard) = 0;
  [[nodiscard]] virtual const ShardMetrics& metrics(
      std::size_t shard) const = 0;
  [[nodiscard]] virtual MetricsSnapshot aggregate_metrics() const = 0;

  // Combined state hash (see Controller::state_fingerprint).  Sensitive to
  // the exact tag assignment, which under concurrent cross-shard commits
  // depends on arrival order.
  [[nodiscard]] virtual std::uint64_t state_fingerprint() const = 0;
  // Interleaving-independent variant: recompacts the rule universe (fresh
  // clause-major rebuild of the exact same installed key set) and then
  // fingerprints.  Two runs that installed the same key set -- regardless
  // of worker count or commit arrival order -- hash identically.
  [[nodiscard]] virtual std::uint64_t canonical_fingerprint() = 0;
};

}  // namespace softcell
