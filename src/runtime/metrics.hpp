// Per-shard lock-free runtime metrics.
//
// Every shard owns one ShardMetrics; workers update it with relaxed atomic
// increments only (no locks, no false sharing with neighbour shards thanks
// to the alignas).  Aggregation walks the shards on demand and merges the
// counters and latency histograms into a MetricsSnapshot -- readers never
// stall writers.
//
// Latencies use a fixed power-of-two bucket histogram (bucket i counts
// samples in [2^i, 2^{i+1}) nanoseconds), so p50/p99 come out with at most
// 2x resolution error and recording is a single relaxed fetch_add.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/registry.hpp"
#include "util/annotations.hpp"

namespace softcell {

// Capability note (softcell-verify Part A): metrics are deliberately
// lock-free -- every field below is a relaxed atomic, so nothing here is
// SC_GUARDED_BY any capability, and draining (merge_into) may race updates
// by design: counters are monotonic and independent, so an aggregate can
// be slightly stale but never torn.  Anything added to this file that is
// NOT a std::atomic must come with a capability annotation.

class LatencyHistogram {
 public:
  // Log-linear geometry: 4 sub-buckets per power-of-two octave, topping
  // out at ~2^48 ns (~3 days); everything above saturates into the last
  // bucket.  Geometry lives in telemetry/registry.hpp so the registry's
  // histograms and the exporters agree with us bucket for bucket.
  static constexpr std::size_t kBuckets = telemetry::kHistogramBuckets;

  void record(std::uint64_t nanos) {
    buckets_[bucket_of(nanos)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t nanos) {
    return telemetry::histogram_bucket_of(nanos);
  }
  // Upper bound (exclusive) of a bucket, i.e. the value reported for
  // quantiles that land in it -- a conservative (pessimistic) estimate.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t bucket) {
    return telemetry::histogram_bucket_upper(bucket);
  }

  void merge_into(std::array<std::uint64_t, kBuckets>& out) const {
    for (std::size_t i = 0; i < kBuckets; ++i)
      out[i] += buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// Aggregated view of one or more shards at a point in time.
struct MetricsSnapshot {
  std::uint64_t requests = 0;           // every control-plane call
  std::uint64_t classifier_fetches = 0;
  std::uint64_t path_requests = 0;      // executed (post-coalescing)
  std::uint64_t coalesced_misses = 0;   // duplicate misses folded away
  std::uint64_t inline_fetches = 0;     // fetches run on the caller's thread
  std::uint64_t errors = 0;
  std::array<std::uint64_t, LatencyHistogram::kBuckets> latency_buckets{};

  // Aggregation-engine hot-path counters of the brain's core engine (see
  // core/engine.hpp; filled by ShardBrain::aggregate_metrics(), zero when
  // aggregating raw ShardMetrics only).
  std::uint64_t agg_installs = 0;
  std::uint64_t agg_candidate_scans = 0;
  std::uint64_t agg_candidates_scored = 0;
  std::uint64_t agg_hop_evals = 0;
  std::uint64_t agg_presence_skips = 0;
  std::uint64_t agg_filter_settles = 0;
  std::uint64_t agg_bound_skips = 0;
  std::uint64_t agg_memo_hits = 0;
  std::uint64_t agg_memo_misses = 0;
  std::uint64_t agg_score_resolves = 0;
  std::uint64_t agg_scratch_reuses = 0;

  [[nodiscard]] std::uint64_t latency_count() const {
    std::uint64_t n = 0;
    for (const auto b : latency_buckets) n += b;
    return n;
  }

  // Quantile in [0, 1]; returns the upper bound of the bucket holding the
  // q-th sample (nearest-rank over the histogram), 0 if empty.
  [[nodiscard]] std::uint64_t latency_quantile_ns(double q) const {
    return telemetry::histogram_quantile_upper(latency_buckets, q);
  }

  // Publishes the snapshot into a telemetry sink: runtime counters under
  // `prefix` (default "runtime."), the latency histogram as
  // `prefix`latency_ns, and the engine counters under "agg.".  This is how
  // the runtime's metrics reach Registry::collect() and the BENCH_*.json
  // exporter without changing any increment site.
  void contribute(telemetry::MetricSink& sink,
                  std::string_view prefix = "runtime.") const {
    const auto name = [&](std::string_view leaf) {
      std::string full(prefix);
      full.append(leaf);
      return full;
    };
    sink.counter(name("requests"), requests);
    sink.counter(name("classifier_fetches"), classifier_fetches);
    sink.counter(name("path_requests"), path_requests);
    sink.counter(name("coalesced_misses"), coalesced_misses);
    sink.counter(name("inline_fetches"), inline_fetches);
    sink.counter(name("errors"), errors);
    sink.histogram(name("latency_ns"), latency_buckets);
    sink.counter("agg.installs", agg_installs);
    sink.counter("agg.candidate_scans", agg_candidate_scans);
    sink.counter("agg.candidates_scored", agg_candidates_scored);
    sink.counter("agg.hop_evals", agg_hop_evals);
    sink.counter("agg.presence_skips", agg_presence_skips);
    sink.counter("agg.filter_settles", agg_filter_settles);
    sink.counter("agg.bound_skips", agg_bound_skips);
    sink.counter("agg.memo_hits", agg_memo_hits);
    sink.counter("agg.memo_misses", agg_memo_misses);
    sink.counter("agg.score_resolves", agg_score_resolves);
    sink.counter("agg.scratch_reuses", agg_scratch_reuses);
  }
};

// One shard's counters.  All updates are relaxed atomics: the counters are
// monotonic and independent, so aggregation tolerates being slightly stale
// but never tears or blocks the request path.
class alignas(64) ShardMetrics {
 public:
  void count_request() { requests_.fetch_add(1, std::memory_order_relaxed); }
  void count_classifier_fetch() {
    classifier_fetches_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_path_request() {
    path_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_coalesced() {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_inline_fetch() {
    inline_fetches_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_error() { errors_.fetch_add(1, std::memory_order_relaxed); }
  void record_latency(std::uint64_t nanos) { latency_.record(nanos); }

  void merge_into(MetricsSnapshot& out) const {
    out.requests += requests_.load(std::memory_order_relaxed);
    out.classifier_fetches +=
        classifier_fetches_.load(std::memory_order_relaxed);
    out.path_requests += path_requests_.load(std::memory_order_relaxed);
    out.coalesced_misses += coalesced_.load(std::memory_order_relaxed);
    out.inline_fetches += inline_fetches_.load(std::memory_order_relaxed);
    out.errors += errors_.load(std::memory_order_relaxed);
    latency_.merge_into(out.latency_buckets);
  }

  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> classifier_fetches_{0};
  std::atomic<std::uint64_t> path_requests_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> inline_fetches_{0};
  std::atomic<std::uint64_t> errors_{0};
  LatencyHistogram latency_;
};

}  // namespace softcell
