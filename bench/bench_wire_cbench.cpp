// softcell::net -- Cbench over the wire (paper section 6.2, for real).
//
// The original cbench harnesses call the controller in-process; this one
// speaks the ofp wire protocol over loopback TCP: N connections (emulated
// switch agents) x M outstanding packet-ins each, against a
// ControllerServer running the full epoll/batching/backpressure serving
// path.  Latency is measured per request (send to matching reply) into the
// telemetry histogram geometry; results land in BENCH_net.json (or
// argv[1]).
//
// Correctness cross-check (the acceptance bar): before each wire run, the
// exact same workload is driven in-process through the same
// RuntimeDispatcher boundary, and the two canonical controller
// fingerprints must match -- the socket layer may reorder arbitrarily, but
// it must not lose, duplicate or corrupt control-plane work.  The bench
// aborts nonzero on a mismatch.
//
// By default the server runs in-process (its event loop on its own
// thread).  Set SOFTCELL_WIRE_PORT to aim the load at an external
// softcell-serverd -- started with matching --k/--clauses/--connections/
// --ues-per-conn flags -- which is exactly what the tier1.sh net stage
// does; the parity check still runs against the local reference.
//
// Honesty, same rules as bench_runtime_scaling: the load threads, the
// event loop and the runtime workers all want their own hardware thread;
// when the host has fewer, rows time-slice and measure the scheduler, so
// `valid_scaling` is false and no throughput conclusions should be drawn.
// Capture docs: see README "Benchmarks" (>= 4-core host for the scaling
// runs).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/dispatch.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/export.hpp"
#include "workload/wire_workload.hpp"

using namespace softcell;

namespace {

struct WireRow {
  std::uint32_t connections = 0;
  std::uint32_t outstanding = 0;
  std::uint64_t requests = 0;
  double seconds = 0;
  double per_second = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t server_drops = 0;
  std::uint64_t fingerprint = 0;
  bool parity = false;
};

// One wire run against an in-process server, plus its in-process
// reference; fills `row` and (optionally) captures the registry snapshot
// while the server's net.* collector is still registered.
bool run_row(const WireWorkloadConfig& config, WireRow* row,
             telemetry::Snapshot* snapshot_out) {
  const CellularTopology topo = config.make_topology();
  const std::uint64_t reference = run_wire_workload_inprocess(topo, config);

  std::vector<ClauseId> clauses;
  ShardBrain brain(topo, make_wire_policy(topo, config.num_clauses, &clauses),
                   {.shards = config.shards, .controller = {}});
  provision_wire_ues(brain, config, topo.num_base_stations());
  ControlPlaneRuntime runtime(
      brain, {.workers = config.workers, .queue_capacity = 8192});
  net::RuntimeDispatcher dispatcher(runtime, brain);
  net::EventLoop loop;
  net::ControllerServer server(loop, dispatcher);
  std::string err;
  if (!loop.ok() || !server.start(&err)) {
    std::fprintf(stderr, "server start failed: %s\n", err.c_str());
    return false;
  }
  std::thread loop_thread([&] { loop.run(); });

  const WireLoadResult result = run_wire_load(
      server.port(), topo.num_base_stations(), clauses, config);

  server.request_stop();
  loop_thread.join();

  if (!result.ok) {
    std::fprintf(stderr, "wire load failed: %s\n", result.error.c_str());
    return false;
  }
  row->connections = config.connections;
  row->outstanding = config.max_outstanding;
  row->requests = result.received;
  row->seconds = result.seconds;
  row->per_second = result.seconds > 0
                        ? static_cast<double>(result.received) / result.seconds
                        : 0.0;
  row->p50_us = telemetry::histogram_quantile_upper(result.latency_buckets,
                                                    0.50);
  row->p99_us = telemetry::histogram_quantile_upper(result.latency_buckets,
                                                    0.99);
  row->server_drops = result.server.drops;
  row->fingerprint = result.server.fingerprint;
  row->parity = result.server.fingerprint == reference;
  if (snapshot_out) *snapshot_out = telemetry::Registry::global().collect();
  return true;
}

// External-server mode: the reference still runs locally, the load goes to
// SOFTCELL_WIRE_PORT (a softcell-serverd started with matching flags).
bool run_external(std::uint16_t port, const WireWorkloadConfig& config,
                  WireRow* row) {
  const CellularTopology topo = config.make_topology();
  const std::uint64_t reference = run_wire_workload_inprocess(topo, config);
  std::vector<ClauseId> clauses;
  (void)make_wire_policy(topo, config.num_clauses, &clauses);

  const WireLoadResult result =
      run_wire_load(port, topo.num_base_stations(), clauses, config);
  if (!result.ok) {
    std::fprintf(stderr, "wire load failed: %s\n", result.error.c_str());
    return false;
  }
  row->connections = config.connections;
  row->outstanding = config.max_outstanding;
  row->requests = result.received;
  row->seconds = result.seconds;
  row->per_second = result.seconds > 0
                        ? static_cast<double>(result.received) / result.seconds
                        : 0.0;
  row->p50_us = telemetry::histogram_quantile_upper(result.latency_buckets,
                                                    0.50);
  row->p99_us = telemetry::histogram_quantile_upper(result.latency_buckets,
                                                    0.99);
  row->server_drops = result.server.drops;
  row->fingerprint = result.server.fingerprint;
  row->parity = result.server.fingerprint == reference;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_net.json";
  const unsigned hw = std::thread::hardware_concurrency();
  const char* smoke_env = std::getenv("SOFTCELL_SMOKE");
  const bool smoke = smoke_env != nullptr && std::strcmp(smoke_env, "0") != 0;
  const char* ext_port_env = std::getenv("SOFTCELL_WIRE_PORT");

  WireWorkloadConfig config;
  config.requests_per_conn = smoke ? 300 : 10'000;

  std::printf("=== softcell::net -- Cbench over loopback TCP ===\n");
  std::printf("(N switch-agent connections x %u outstanding packet-ins, "
              "epoll server,\n batched replies; every row cross-checked "
              "against the in-process reference fingerprint)\n\n",
              config.max_outstanding);
  std::printf("  host hardware threads: %u\n\n", hw);

  std::vector<std::uint32_t> conn_sweep{1u, 2u, 4u};
  if (smoke) conn_sweep = {2u};
  if (ext_port_env) conn_sweep = {config.connections};  // server provisioned
                                                        // for one shape

  // Loop thread + runtime workers + N load threads all need their own
  // hardware thread for the throughput numbers to measure the pipeline
  // rather than the scheduler.
  const unsigned max_conns = conn_sweep.back();
  const bool valid_scaling = hw >= config.workers + max_conns + 1;

  std::printf("  %5s | %11s | %12s | %9s | %9s | %6s\n", "conns",
              "outstanding", "requests/s", "p50 us", "p99 us", "parity");
  std::printf("  ------+-------------+--------------+-----------+-----------+"
              "-------\n");

  std::vector<WireRow> rows;
  telemetry::Snapshot snapshot;
  for (const std::uint32_t conns : conn_sweep) {
    WireWorkloadConfig c = config;
    c.connections = conns;
    WireRow row;
    bool ok;
    if (ext_port_env) {
      const auto port =
          static_cast<std::uint16_t>(std::strtoul(ext_port_env, nullptr, 10));
      ok = run_external(port, c, &row);
    } else {
      const bool last = conns == conn_sweep.back();
      ok = run_row(c, &row, last ? &snapshot : nullptr);
    }
    if (!ok) return 1;
    std::printf("  %5u | %11u | %12.0f | %9llu | %9llu | %6s\n",
                row.connections, row.outstanding, row.per_second,
                static_cast<unsigned long long>(row.p50_us),
                static_cast<unsigned long long>(row.p99_us),
                row.parity ? "OK" : "FAIL");
    if (!row.parity) {
      std::fprintf(stderr,
                   "FATAL: wire fingerprint %016llx != in-process reference "
                   "for the same workload\n",
                   static_cast<unsigned long long>(row.fingerprint));
      return 1;
    }
    rows.push_back(row);
  }

  if (!valid_scaling)
    std::printf("\n  warning: host has %u hardware threads but the widest "
                "row wants %u (loop + %u workers + %u connections) -- "
                "oversubscribed rows time-slice and do not measure serving "
                "throughput; valid_scaling=false in the report.\n",
                hw, config.workers + max_conns + 1, config.workers,
                max_conns);

  telemetry::BenchReport report("wire_cbench");
  report.meta_u64("hardware_threads", hw);
  report.meta_bool("valid_scaling", valid_scaling);
  report.meta_bool("smoke", smoke);
  report.meta_bool("external_server", ext_port_env != nullptr);
  report.meta_u64("shards", config.shards);
  report.meta_u64("workers", config.workers);
  report.meta_u64("requests_per_conn", config.requests_per_conn);
  report.meta_u64("max_outstanding", config.max_outstanding);
  report.meta_num("path_request_ratio", config.path_request_ratio, 3);
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(rows.back().fingerprint));
  report.meta_str("fingerprint", fp);
  report.meta_bool("fingerprint_parity", true);  // mismatch aborts above
  for (const WireRow& r : rows) {
    auto row = report.row();
    row.begin_object()
        .u64("connections", r.connections)
        .u64("outstanding", r.outstanding)
        .u64("requests", r.requests)
        .num("seconds", r.seconds, 4)
        .u64("p50_us", r.p50_us)
        .u64("p99_us", r.p99_us)
        .u64("server_drops", r.server_drops)
        .boolean("parity", r.parity);
    if (valid_scaling)
      row.num("requests_per_s", r.per_second, 0);
    else
      row.null("requests_per_s");
    row.end_object();
    report.add_row(std::move(row));
  }
  if (!ext_port_env) report.metrics(snapshot);
  if (report.write(out_path)) {
    std::printf("\n  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
