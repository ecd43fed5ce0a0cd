#include "ctrl/core_committer.hpp"

#include <type_traits>
#include <utility>

#include "telemetry/stopwatch.hpp"

namespace softcell {

CoreCommitter::CoreCommitter(const CellularTopology& topo,
                             std::shared_ptr<const ServicePolicy> policy,
                             ControllerOptions options)
    : core_(topo, std::move(policy), options),
      batches_(telemetry::Registry::global().counter("commit.batches")),
      ops_(telemetry::Registry::global().counter("commit.ops")),
      apply_ns_(telemetry::Registry::global().histogram("commit.apply_ns")),
      wait_ns_(telemetry::Registry::global().histogram("commit.wait_ns")) {}

template <typename Op>
auto CoreCommitter::commit(std::size_t shard, Op&& op) {
  telemetry::ScopedTimerNs wait_span(wait_ns_);
  sc::LockGuard lock(mu_);
  telemetry::ScopedTimerNs apply_span(apply_ns_);
  std::invoke_result_t<Op, Controller&> result{};
  try {
    result = std::forward<Op>(op)(core_);
  } catch (...) {
    finish_locked(shard);
    throw;
  }
  finish_locked(shard);
  return result;
}

PolicyTag CoreCommitter::commit_path(std::size_t shard, std::uint32_t bs,
                                     ClauseId clause) {
  return commit(shard, [&](Controller& core) {
    return core.request_policy_path(bs, clause);
  });
}

std::vector<PolicyTag> CoreCommitter::commit_paths(
    std::size_t shard, std::span<const Controller::PathRequest> requests) {
  return commit(shard, [&](Controller& core) {
    return core.request_policy_paths(requests);
  });
}

PolicyTag CoreCommitter::commit_m2m(std::size_t shard, std::uint32_t src_bs,
                                    std::uint32_t dst_bs, ClauseId clause) {
  return commit(shard, [&](Controller& core) {
    return core.request_m2m_path(src_bs, dst_bs, clause);
  });
}

Controller::RecompactResult CoreCommitter::commit_recompact(
    std::size_t shard) {
  return commit(shard, [](Controller& core) { return core.recompact(); });
}

void CoreCommitter::finish_locked(std::size_t shard) {
  if (observer_) observer_(shard, seq_);
  ++seq_;
  batches_.add(1);
  ops_.add(1);
}

}  // namespace softcell
