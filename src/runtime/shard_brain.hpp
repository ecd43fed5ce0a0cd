// ShardBrain: the partitioned controller brain (DESIGN.md section 16).
//
// The paper's architecture has ONE set of core and gateway switches whose
// tables every flow shares (Fig. 4's port embedding splits state between
// BS-local and core switches, not between controller clones).  ShardBrain
// keeps that single rule universe while still letting N shards proceed in
// parallel:
//
//   * per-UE state (profiles, locations, classifier compilation) lives on
//     the UE's ShardEngine -- shard(ue) = splitmix64(ue) % N, no
//     cross-shard locks;
//   * shared core state (policy paths, m2m half-paths, the tag namespace
//     and the core/gateway switch rows) lives on ONE core Controller owned
//     by the CoreCommitter, which serializes cross-shard installs under
//     one commit-stage mutex;
//   * the read path (fetch_classifiers, the warm-hit path checks) never
//     waits behind an install: it looks tags up through the core's
//     path_tag() / m2m_tag(), which take only the core's path-map leaf
//     lock, and compiles against the shard's own store.
//
// Fingerprint: state_fingerprint() folds the shard stores' write counts and
// attachments into the core fingerprint, so it comes out bit-equal to a
// single Controller replaying the same request history.  The golden
// digests in tests/test_shard_brain.cpp were recorded against the
// per-shard-clone brain this class replaced, and depend on that fold-in.
//
// Thread safety: every member is either internally synchronized (the
// CoreCommitter, each ShardEngine, VersionedSnapshot's writer mutex) or
// lock-free by design (ShardMetrics relaxed atomics), so no field here
// carries an SC_GUARDED_BY.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/core_committer.hpp"
#include "ctrl/shard_engine.hpp"
#include "runtime/control_brain.hpp"
#include "runtime/metrics.hpp"
#include "runtime/snapshot.hpp"
#include "telemetry/registry.hpp"

namespace softcell {

struct ShardBrainOptions {
  std::size_t shards = 4;
  ControllerOptions controller;
};

class ShardBrain final : public ControlPlane, public ControlBrain {
 public:
  ShardBrain(const CellularTopology& topo, ServicePolicy policy,
             ShardBrainOptions options = {});

  [[nodiscard]] std::size_t shard_count() const override {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of(UeId ue) const override;

  // --- UE-keyed request API (ControlPlane + ControlBrain) -------------------
  void provision_subscriber(UeId ue, const SubscriberProfile& profile)
      override;
  void attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) override;
  void detach_ue(UeId ue) override;
  void update_location(UeId ue, std::uint32_t bs, LocalUeId local) override;
  [[nodiscard]] std::optional<UeLocation> ue_location(UeId ue) const override;
  [[nodiscard]] std::vector<PacketClassifier> fetch_classifiers(
      UeId ue, std::uint32_t bs) const override;

  // Path requests check the core's installed-path map first (warm hit: no
  // commit, and the lookup never waits behind an install) and fall
  // through to the commit stage on miss.
  PolicyTag request_policy_path(UeId ue, std::uint32_t bs,
                                ClauseId clause) override;
  std::vector<PolicyTag> request_policy_paths(
      UeId ue, std::span<const Controller::PathRequest> requests) override;
  PolicyTag request_m2m_path(UeId src_ue, std::uint32_t src_bs,
                             std::uint32_t dst_bs, ClauseId clause) override;

  // --- UE-less ControlPlane surface (simulation agents) ---------------------
  PolicyTag request_policy_path(std::uint32_t bs, ClauseId clause) override;
  PolicyTag request_m2m_path(std::uint32_t src_bs, std::uint32_t dst_bs,
                             ClauseId clause) override;
  [[nodiscard]] std::vector<NodeId> select_instances(
      std::uint32_t bs, ClauseId clause) const override;

  // --- policy snapshot (RCU swap; never stalls the request path) ------------
  [[nodiscard]] std::shared_ptr<const ServicePolicy> policy_snapshot() const {
    return policy_.load();
  }
  [[nodiscard]] std::uint64_t policy_version() const {
    return policy_.version();
  }
  std::uint64_t update_policy(ServicePolicy next);

  // --- failover (quiescent; same protocol as a single Controller) ----------
  void fail_primary_replica();
  void rebuild_locations(
      const std::function<void(
          const std::function<void(UeId, UeLocation)>&)>& query);

  // --- metrics --------------------------------------------------------------
  [[nodiscard]] ShardMetrics& metrics(std::size_t shard) override {
    return metrics_[shard];
  }
  [[nodiscard]] const ShardMetrics& metrics(std::size_t shard) const override {
    return metrics_[shard];
  }
  [[nodiscard]] MetricsSnapshot aggregate_metrics() const override;

  // Bit-identical to a single Controller's fingerprint over the same
  // request history (see the header comment and DESIGN.md section 16).
  [[nodiscard]] std::uint64_t state_fingerprint() const override;
  [[nodiscard]] std::uint64_t canonical_fingerprint() override;

  // --- introspection --------------------------------------------------------
  // The shared core controller (rule universe).  Same quiescence contract
  // as Controller::engine(); the simulation harness binds its mirror and
  // forwarding walk here.
  [[nodiscard]] Controller& core() { return committer_.core(); }
  [[nodiscard]] const Controller& core() const { return committer_.core(); }
  [[nodiscard]] ShardEngine& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const ShardEngine& shard(std::size_t i) const {
    return *shards_[i];
  }

 private:
  VersionedSnapshot<ServicePolicy> policy_;
  CoreCommitter committer_;
  std::vector<std::unique_ptr<ShardEngine>> shards_;
  std::unique_ptr<ShardMetrics[]> metrics_;
  // Publishes aggregate_metrics() into the telemetry registry on collect();
  // declared last so it unregisters before the state it reads dies.
  telemetry::Registry::CollectorHandle collector_;
};

}  // namespace softcell
