#include "runtime/shard_brain.hpp"

#include <stdexcept>
#include <utility>

namespace softcell {

namespace {

// splitmix64 finalizer: spreads consecutive UE ids across shards.  The
// partition is pinned by a golden (ShardBrainTest.ShardRoutingMatches*).
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

ShardBrain::ShardBrain(const CellularTopology& topo, ServicePolicy policy,
                       ShardBrainOptions options)
    : policy_(std::make_shared<const ServicePolicy>(std::move(policy))),
      committer_(topo, policy_.load(), options.controller) {
  if (options.shards == 0)
    throw std::invalid_argument("ShardBrain: need at least one shard");
  shards_.reserve(options.shards);
  const auto snapshot = policy_.load();
  for (std::size_t i = 0; i < options.shards; ++i)
    shards_.push_back(std::make_unique<ShardEngine>(
        snapshot, options.controller.store_replicas));
  metrics_ = std::make_unique<ShardMetrics[]>(options.shards);
  collector_ = telemetry::Registry::global().add_collector(
      [this](telemetry::MetricSink& sink) {
        aggregate_metrics().contribute(sink, "runtime.");
      });
}

std::size_t ShardBrain::shard_of(UeId ue) const {
  return mix64(ue.value()) % shards_.size();
}

void ShardBrain::provision_subscriber(UeId ue,
                                      const SubscriberProfile& profile) {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  shards_[s]->provision_subscriber(ue, profile);
}

void ShardBrain::attach_ue(UeId ue, std::uint32_t bs, LocalUeId local) {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  shards_[s]->attach_ue(ue, bs, local);
}

void ShardBrain::detach_ue(UeId ue) {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  shards_[s]->detach_ue(ue);
}

void ShardBrain::update_location(UeId ue, std::uint32_t bs, LocalUeId local) {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  shards_[s]->update_location(ue, bs, local);
}

std::optional<UeLocation> ShardBrain::ue_location(UeId ue) const {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  return shards_[s]->ue_location(ue);
}

std::vector<PacketClassifier> ShardBrain::fetch_classifiers(
    UeId ue, std::uint32_t bs) const {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  metrics_[s].count_classifier_fetch();
  return shards_[s]->fetch_classifiers(ue, bs, committer_.core());
}

PolicyTag ShardBrain::request_policy_path(UeId ue, std::uint32_t bs,
                                          ClauseId clause) {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  metrics_[s].count_path_request();
  // Warm hit: the path is already installed -- no commit, and path_tag()
  // takes only the core's path-map lock, never the one installs hold.
  // The core re-checks under its own lock on the miss path, so a racing
  // duplicate still installs once.
  if (const auto tag = committer_.core().path_tag(clause, bs)) return *tag;
  return committer_.commit_path(s, bs, clause);
}

std::vector<PolicyTag> ShardBrain::request_policy_paths(
    UeId ue, std::span<const Controller::PathRequest> requests) {
  const auto s = shard_of(ue);
  metrics_[s].count_request();
  for (std::size_t i = 0; i < requests.size(); ++i)
    metrics_[s].count_path_request();
  // The batch goes to the commit stage whole -- the core's batched install
  // sorts by (bs, clause) and skips already-installed entries under one
  // writer-lock acquisition, which beats filtering entry by entry here.
  return committer_.commit_paths(s, requests);
}

PolicyTag ShardBrain::request_m2m_path(UeId src_ue, std::uint32_t src_bs,
                                       std::uint32_t dst_bs, ClauseId clause) {
  const auto s = shard_of(src_ue);
  metrics_[s].count_request();
  metrics_[s].count_path_request();
  if (const auto tag = committer_.core().m2m_tag(clause, src_bs, dst_bs))
    return *tag;
  return committer_.commit_m2m(s, src_bs, dst_bs, clause);
}

PolicyTag ShardBrain::request_policy_path(std::uint32_t bs, ClauseId clause) {
  // UE-less ControlPlane surface (simulation agents): no shard metrics to
  // attribute; commits are accounted to shard 0.
  if (const auto tag = committer_.core().path_tag(clause, bs)) return *tag;
  return committer_.commit_path(0, bs, clause);
}

PolicyTag ShardBrain::request_m2m_path(std::uint32_t src_bs,
                                       std::uint32_t dst_bs, ClauseId clause) {
  if (const auto tag = committer_.core().m2m_tag(clause, src_bs, dst_bs))
    return *tag;
  return committer_.commit_m2m(0, src_bs, dst_bs, clause);
}

std::vector<NodeId> ShardBrain::select_instances(std::uint32_t bs,
                                                 ClauseId clause) const {
  return committer_.core().select_instances(bs, clause);
}

std::uint64_t ShardBrain::update_policy(ServicePolicy next) {
  auto snapshot = std::make_shared<const ServicePolicy>(std::move(next));
  const auto version = policy_.update(snapshot);
  committer_.core().set_policy(snapshot);
  for (auto& shard : shards_) shard->set_policy(snapshot);
  return version;
}

void ShardBrain::fail_primary_replica() {
  // Core first: on replica exhaustion it throws before any shard store has
  // been touched, leaving the brain in its pre-call state (a single
  // Controller's store throws at the same failover count).
  committer_.core().fail_primary_replica();
  for (auto& shard : shards_) shard->fail_primary_replica();
}

void ShardBrain::rebuild_locations(
    const std::function<void(const std::function<void(UeId, UeLocation)>&)>&
        query) {
  // Run the agent query once and bucket the answers by owning shard; each
  // shard store must only hold its own UEs or the attachment fold-in (and
  // with it the fingerprint) would double-count.
  std::vector<std::vector<std::pair<UeId, UeLocation>>> per_shard(
      shards_.size());
  query([&](UeId ue, UeLocation loc) {
    per_shard[shard_of(ue)].emplace_back(ue, loc);
  });
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->rebuild_locations(
        [&](const std::function<void(UeId, UeLocation)>& emit) {
          for (const auto& [ue, loc] : per_shard[i]) emit(ue, loc);
        });
  }
}

MetricsSnapshot ShardBrain::aggregate_metrics() const {
  MetricsSnapshot out;
  for (std::size_t i = 0; i < shards_.size(); ++i) metrics_[i].merge_into(out);
  // All installs run on the one core engine, so its perf counters are the
  // whole story.
  const AggPerf p = committer_.core().agg_perf();
  out.agg_installs += p.installs;
  out.agg_candidate_scans += p.candidate_scans;
  out.agg_candidates_scored += p.candidates_scored;
  out.agg_hop_evals += p.hop_evals;
  out.agg_presence_skips += p.presence_skips;
  out.agg_filter_settles += p.filter_settles;
  out.agg_bound_skips += p.bound_skips;
  out.agg_memo_hits += p.memo_hits;
  out.agg_memo_misses += p.memo_misses;
  out.agg_score_resolves += p.score_resolves;
  out.agg_scratch_reuses += p.scratch_reuses;
  return out;
}

std::uint64_t ShardBrain::state_fingerprint() const {
  // Fold the shard stores' write counts and attachments into the core
  // fingerprint: the sums equal what a single Controller's store absorbs
  // from the same request history, so the hash comes out bit-identical.
  std::uint64_t store_writes = 0;
  std::uint64_t attached = 0;
  for (const auto& shard : shards_) {
    store_writes += shard->store_writes();
    attached += shard->attached_ues();
  }
  return committer_.core().state_fingerprint(store_writes, attached);
}

std::uint64_t ShardBrain::canonical_fingerprint() {
  committer_.commit_recompact(0);
  return state_fingerprint();
}

}  // namespace softcell
