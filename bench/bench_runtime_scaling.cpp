// softcell::runtime scaling -- request throughput vs. worker count.
//
// Drives the sharded control-plane pipeline (src/runtime/) with the Cbench
// protocol: a dispatcher thread emulating the local agents posts
// classifier-fetch and flow-miss requests; the pool's workers execute them
// on the owning shards.  We sweep the worker count and report sustained
// requests per second plus the pipeline's own latency percentiles, and
// write the numbers to BENCH_runtime.json (or argv[1]).
//
// Determinism cross-check: the final canonical brain fingerprint must be
// identical at every worker count (per-shard FIFO guarantee); the bench
// aborts if a run disagrees with the 1-worker reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "workload/cbench.hpp"

using namespace softcell;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_runtime.json";
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("=== softcell::runtime -- sharded pipeline scaling ===\n");
  std::printf("(Cbench protocol through the request pipeline: 64 emulated"
              " agents, 8 shards,\n 2%% flow-miss requests; single dispatcher"
              " thread feeds the worker queues)\n\n");
  std::printf("  host hardware threads: %u\n\n", hw);
  std::printf("  %7s | %12s | %9s | %9s | %9s | %9s\n", "workers",
              "requests/s", "p50 us", "p99 us", "coalesced", "speedup");
  std::printf("  --------+--------------+-----------+-----------+-----------+"
              "----------\n");

  // The wire workload in the Cbench shape: one stream per emulated agent.
  WireWorkloadConfig config;
  config.connections = 64;
  config.path_request_ratio = 0.02;
  // SOFTCELL_SMOKE=1: tiny request count so `ctest -L perf` exercises the
  // pipeline end to end (incl. the determinism cross-check) in seconds.
  const char* smoke_env = std::getenv("SOFTCELL_SMOKE");
  const bool smoke = smoke_env != nullptr && std::strcmp(smoke_env, "0") != 0;
  config.requests_per_conn = (smoke ? 5'000 : 200'000) / config.connections;
  std::vector<unsigned> worker_sweep{1u, 2u, 4u, 8u};
  if (smoke) worker_sweep = {1u, 2u};

  // The sweep's top worker counts only measure parallel speedup when the
  // host can actually run them concurrently; oversubscribed rows time-slice
  // and the curve reflects scheduler behaviour, not the pipeline.  When
  // that happens the speedup column is reported as n/a (JSON null), not as
  // a number that looks like a scaling result.
  const unsigned max_workers = worker_sweep.back();
  const bool valid_scaling = hw >= max_workers;

  struct Row {
    unsigned workers;
    double per_second;
    double seconds;
    std::uint64_t p50_ns;
    std::uint64_t p99_ns;
    std::uint64_t coalesced;
    std::uint64_t fingerprint;
  };
  std::vector<Row> rows;
  MetricsSnapshot last_metrics;  // snapshot of the widest run, exported below
  for (const unsigned workers : worker_sweep) {
    config.workers = workers;
    const auto r = bench_runtime_pipeline(config);
    last_metrics = r.metrics;
    Row row;
    row.workers = workers;
    row.per_second = r.total.per_second();
    row.seconds = r.total.seconds;
    row.p50_ns = r.metrics.latency_quantile_ns(0.50);
    row.p99_ns = r.metrics.latency_quantile_ns(0.99);
    row.coalesced = r.metrics.coalesced_misses;
    row.fingerprint = r.fingerprint;
    rows.push_back(row);
    if (valid_scaling) {
      std::printf("  %7u | %12.0f | %9.1f | %9.1f | %9llu | %8.2fx\n", workers,
                  row.per_second, static_cast<double>(row.p50_ns) / 1e3,
                  static_cast<double>(row.p99_ns) / 1e3,
                  static_cast<unsigned long long>(row.coalesced),
                  row.per_second / rows.front().per_second);
    } else {
      std::printf("  %7u | %12.0f | %9.1f | %9.1f | %9llu | %9s\n", workers,
                  row.per_second, static_cast<double>(row.p50_ns) / 1e3,
                  static_cast<double>(row.p99_ns) / 1e3,
                  static_cast<unsigned long long>(row.coalesced), "n/a");
    }
    if (row.fingerprint != rows.front().fingerprint) {
      std::fprintf(stderr,
                   "FATAL: %u-worker fingerprint %016llx differs from the"
                   " 1-worker reference %016llx\n",
                   workers,
                   static_cast<unsigned long long>(row.fingerprint),
                   static_cast<unsigned long long>(rows.front().fingerprint));
      return 1;
    }
  }
  std::printf("\n  determinism: all worker counts produced fingerprint"
              " %016llx\n",
              static_cast<unsigned long long>(rows.front().fingerprint));
  if (hw <= 1)
    std::printf("  note: single-hardware-thread host -- workers time-slice"
                " one core, so the sweep shows pipeline overhead, not"
                " parallel speedup; on a multi-core host the per-worker"
                " queues scale the request path.\n");
  else if (!valid_scaling)
    std::printf("  warning: host has %u hardware threads but the sweep runs"
                " up to %u workers -- oversubscribed rows are time-sliced"
                " and do not measure parallel scaling; speedup_vs_1 is"
                " reported as null.\n",
                hw, max_workers);

  telemetry::BenchReport report("runtime_scaling");
  report.meta_u64("hardware_threads", hw);
  report.meta_bool("valid_scaling", valid_scaling);
  report.meta_bool("smoke", smoke);
  report.meta_u64("shards", config.shards);
  report.meta_u64("requests", config.requests_per_conn * config.connections);
  report.meta_num("path_request_ratio", config.path_request_ratio, 3);
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(rows.front().fingerprint));
  report.meta_str("fingerprint", fp);
  for (const Row& r : rows) {
    auto row = report.row();
    row.begin_object()
        .u64("workers", r.workers)
        .num("requests_per_s", r.per_second, 0)
        .num("seconds", r.seconds, 4)
        .u64("p50_ns", r.p50_ns)
        .u64("p99_ns", r.p99_ns)
        .u64("coalesced_misses", r.coalesced);
    if (valid_scaling)
      row.num("speedup_vs_1", r.per_second / rows.front().per_second, 3);
    else
      row.null("speedup_vs_1");
    row.end_object();
    report.add_row(std::move(row));
  }
  telemetry::Snapshot snapshot;
  last_metrics.contribute(snapshot);
  snapshot.finish();
  report.metrics(snapshot);
  if (report.write(out_path)) {
    std::printf("\n  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
