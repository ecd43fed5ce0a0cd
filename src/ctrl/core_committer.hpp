// CoreCommitter: the commit stage of the shard-brain split.
//
// Cross-shard installs -- shared core/gateway switch rows, tag allocation,
// recompaction -- mutate the one rule universe every shard's flows
// traverse.  One mutex is held across the whole commit: apply the op to
// the core Controller, then call the commit observer.
//
// Ordering rules (DESIGN.md section 16):
//   * total order -- ops apply in mutex-acquisition order; ops from one
//     shard (issued sequentially, as the runtime's per-shard FIFO
//     guarantees) therefore apply in issue order;
//   * written-before-complete -- the core writes an op's tag into its
//     installed-path map before the call returns, so a requester that
//     observed its own tag finds it in every later Controller::path_tag
//     lookup (no read-your-writes anomaly);
//   * exactly-once install -- the core re-checks its installed map under
//     its own lock, so duplicate (bs, clause) ops arriving from different
//     shards collapse to one install and all return the same tag.
//
// An op that throws still gets its sequence number and its observer call
// before the error propagates to the caller.  Every op is its own batch,
// so commit.batches equals commit.ops; commit.wait_ns spans the whole call
// (lock wait included), commit.apply_ns the part under the lock.
//
// Readers never enter this file: they look tags up through
// core().path_tag() / m2m_tag(), which take only the core's path-map lock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ctrl/controller.hpp"
#include "telemetry/registry.hpp"
#include "util/annotations.hpp"

namespace softcell {

class CoreCommitter {
 public:
  CoreCommitter(const CellularTopology& topo,
                std::shared_ptr<const ServicePolicy> policy,
                ControllerOptions options);

  // --- commit API (blocking; any thread) ------------------------------------
  // Each call returns once its op has been applied to the core.  Errors
  // thrown by the core (policy denial, path rejection) propagate to the
  // caller.
  PolicyTag commit_path(std::size_t shard, std::uint32_t bs, ClauseId clause)
      SC_EXCLUDES(mu_);
  std::vector<PolicyTag> commit_paths(
      std::size_t shard, std::span<const Controller::PathRequest> requests)
      SC_EXCLUDES(mu_);
  PolicyTag commit_m2m(std::size_t shard, std::uint32_t src_bs,
                       std::uint32_t dst_bs, ClauseId clause)
      SC_EXCLUDES(mu_);
  Controller::RecompactResult commit_recompact(std::size_t shard)
      SC_EXCLUDES(mu_);

  // The shared core controller (rule universe, tag namespace, installed
  // path maps).  Mutating it directly while commits are in flight bypasses
  // the ordering rules above -- quiescent callers only, same contract as
  // Controller::engine().
  [[nodiscard]] Controller& core() { return core_; }
  [[nodiscard]] const Controller& core() const { return core_; }

  // Test hook: invoked once per applied op, failed ops included, in the
  // global apply order, with the submitting shard and the op's commit
  // sequence number.  Runs on the committing thread under the stage lock;
  // it must not call back into the committer.  Set before concurrent use.
  using CommitObserver =
      std::function<void(std::size_t shard, std::uint64_t seq)>;
  void set_commit_observer(CommitObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  // Runs op(core_) under mu_ and finishes the commit, on the error path
  // too, before returning its result or rethrowing its error.
  template <typename Op>
  auto commit(std::size_t shard, Op&& op) SC_EXCLUDES(mu_);
  // Observer call and sequence bump for the op just applied.
  void finish_locked(std::size_t shard) SC_REQUIRES(mu_);

  Controller core_;

  sc::Mutex mu_;
  CommitObserver observer_;  // set before concurrent use
  std::uint64_t seq_ SC_GUARDED_BY(mu_) = 0;

  // Commit-stage latency series (telemetry registry, see DESIGN.md
  // section 16): refs are stable for the registry's lifetime.
  telemetry::Counter& batches_;
  telemetry::Counter& ops_;
  telemetry::Histogram& apply_ns_;
  telemetry::Histogram& wait_ns_;
};

}  // namespace softcell
