// Telemetry overhead -- cost of compiled-in-but-disarmed tracing.
//
// The acceptance budget for softcell::telemetry (DESIGN.md section 13) is a
// <= 3% throughput regression on the control-plane request path with spans
// compiled in but the tracer disarmed (the steady-state production
// configuration).  Comparing two full pipeline runs head-to-head would
// measure scheduler noise, not the spans, so the bench projects instead:
//
//   1. micro-measure the per-site cost of one disarmed SC_TRACE_SPAN_ARG
//      (guarded static + relaxed armed load + dtor flag check) by differencing
//      two noinline loops that differ only in the span, best-of-N;
//   2. macro-measure the real ns/request through the dispatcher seam
//      softcell-serverd serves from (net::RuntimeDispatcher over a
//      ControlPlaneRuntime and a ShardBrain, the wire workload's streams,
//      no codec or socket);
//   3. projected overhead = per-site cost x (span sites a request can cross)
//      / ns-per-request.
//
// A request traverses at most kSpanSitesPerRequest instrumented sites
// (agent.classifier_miss, runtime.execute, ctrl.request_policy_path,
// ctrl.install_path, engine.install, ofp.flowmod, sim.*) -- the projection
// charges every request the full-chain worst case.  The bench exits
// non-zero if the projection exceeds the budget.  Results land in
// BENCH_telemetry.json (or argv[1]).
//
// Built with SOFTCELL_TELEMETRY=OFF the span loop and the plain loop are
// the same code and the measured overhead is ~0 -- the bench then checks
// that telemetry::kSpansEnabled really is false.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/dispatch.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"
#include "workload/wire_workload.hpp"

using namespace softcell;

namespace {

constexpr double kBudgetPercent = 3.0;
// Upper bound on instrumented sites one request can cross end to end.
constexpr double kSpanSitesPerRequest = 8.0;

#if defined(__GNUC__)
#define SC_BENCH_NOINLINE __attribute__((noinline))
#else
#define SC_BENCH_NOINLINE
#endif

SC_BENCH_NOINLINE std::uint64_t step_with_span(std::uint64_t x) {
  SC_TRACE_SPAN_ARG("bench.overhead_site", x);
  return x * 0x9E3779B97F4A7C15ull + 1;
}

SC_BENCH_NOINLINE std::uint64_t step_plain(std::uint64_t x) {
  return x * 0x9E3779B97F4A7C15ull + 1;
}

// Published sink so the measurement loops cannot be folded away.
volatile std::uint64_t g_sink = 0;

// ns per call, best-of-reps to strip scheduler noise.
template <typename Fn>
double time_loop(Fn fn, std::uint64_t iters, int reps) {
  double best = 1e18;
  std::uint64_t sink = 1;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) sink = fn(sink);
    const std::chrono::duration<double, std::nano> dt =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, dt.count() / static_cast<double>(iters));
  }
  g_sink = sink;
  return best;
}

struct PipelineRun {
  double seconds = 0;
  std::uint64_t requests = 0;
  MetricsSnapshot metrics;
};

// The wire workload's streams through the seam run_wire_workload_inprocess
// uses, one request per connection in turn.  Provisioning is a UE-arrival
// event, not request handling, so only the dispatch loop and drain() are
// timed.
PipelineRun run_pipeline(const WireWorkloadConfig& config) {
  const CellularTopology topo = config.make_topology();
  std::vector<ClauseId> clauses;
  ShardBrain brain(topo, make_wire_policy(topo, config.num_clauses, &clauses),
                   {.shards = config.shards, .controller = {}});
  const std::uint32_t num_bs = topo.num_base_stations();
  provision_wire_ues(brain, config, num_bs);
  std::vector<WireRequestGen> gens;
  gens.reserve(config.connections);
  for (std::uint32_t c = 0; c < config.connections; ++c)
    gens.emplace_back(config, num_bs, clauses, c);
  ControlPlaneRuntime runtime(
      brain, {.workers = config.workers, .queue_capacity = 8192});
  net::RuntimeDispatcher dispatcher(runtime, brain);

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < config.requests_per_conn; ++i)
    for (auto& gen : gens)
      dispatcher.dispatch(gen.next(), [](ofp::PacketInReply&&) {});
  dispatcher.drain();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  return {dt.count(), config.requests_per_conn * config.connections,
          runtime.metrics()};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_telemetry.json";
  const char* smoke_env = std::getenv("SOFTCELL_SMOKE");
  const bool smoke = smoke_env != nullptr && std::strcmp(smoke_env, "0") != 0;

  std::printf("=== softcell::telemetry -- disarmed tracing overhead ===\n");
  std::printf("(spans compiled %s; budget %.1f%% of the request path)\n\n",
              telemetry::kSpansEnabled ? "IN, tracer disarmed" : "OUT",
              kBudgetPercent);

  // 1. per-site disarmed span cost.
  const std::uint64_t iters = smoke ? 2'000'000 : 20'000'000;
  const int reps = 5;
  const double plain_ns = time_loop(step_plain, iters, reps);
  const double span_ns = time_loop(step_with_span, iters, reps);
  const double per_site_ns = std::max(0.0, span_ns - plain_ns);
  std::printf("  per-site cost: %.2f ns (span loop %.2f, plain loop %.2f,"
              " best of %d x %llu iters)\n",
              per_site_ns, span_ns, plain_ns, reps,
              static_cast<unsigned long long>(iters));

  // 2. real request cost through the dispatcher seam.
  WireWorkloadConfig config;
  config.connections = 64;
  config.path_request_ratio = 0.02;
  config.requests_per_conn = (smoke ? 5'000 : 100'000) / config.connections;
  const PipelineRun pipeline = run_pipeline(config);
  const double requests_per_s =
      pipeline.seconds > 0
          ? static_cast<double>(pipeline.requests) / pipeline.seconds
          : 0;
  const double request_ns = requests_per_s > 0 ? 1e9 / requests_per_s : 0;
  std::printf("  pipeline: %.0f requests/s (%.0f ns/request)\n",
              requests_per_s, request_ns);

  // 3. projection: charge every request the full instrumented chain.
  const double overhead_pct =
      request_ns > 0
          ? 100.0 * per_site_ns * kSpanSitesPerRequest / request_ns
          : 0.0;
  const bool ok = overhead_pct <= kBudgetPercent;
  std::printf("  projected overhead: %.3f%% (%.1f sites x %.2f ns per"
              " %.0f ns request) -- %s budget of %.1f%%\n",
              overhead_pct, kSpanSitesPerRequest, per_site_ns, request_ns,
              ok ? "within" : "EXCEEDS", kBudgetPercent);

  telemetry::BenchReport report("telemetry_overhead");
  report.meta_bool("spans_enabled", telemetry::kSpansEnabled);
  report.meta_bool("smoke", smoke);
  report.meta_num("budget_percent", kBudgetPercent, 1);
  report.meta_num("span_sites_per_request", kSpanSitesPerRequest, 1);
  auto row = report.row();
  row.begin_object()
      .num("per_site_ns", per_site_ns, 3)
      .num("span_loop_ns", span_ns, 3)
      .num("plain_loop_ns", plain_ns, 3)
      .num("requests_per_s", requests_per_s, 0)
      .num("request_ns", request_ns, 1)
      .num("projected_overhead_percent", overhead_pct, 3)
      .boolean("within_budget", ok)
      .end_object();
  report.add_row(std::move(row));
  telemetry::Snapshot snapshot;
  pipeline.metrics.contribute(snapshot);
  snapshot.finish();
  report.metrics(snapshot);
  if (report.write(out_path)) {
    std::printf("\n  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
