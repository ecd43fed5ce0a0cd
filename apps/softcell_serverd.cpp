// softcell-serverd -- the standalone controller server (ROADMAP item 3).
//
// The paper's scalability experiment drives a controller process with
// Cbench over real sockets; this binary is that process.  It builds the
// topology / policy / brain / runtime from the same WireWorkloadConfig
// parameters the load generator uses (determinism is the contract: both
// sides must agree on the subscriber base and clause table), provisions
// the subscriber base, then serves packet-in frames on loopback TCP until
// SIGTERM / SIGINT, at which point it drains gracefully: stop accepting,
// finish every in-flight request, flush what the kernel will take, exit.
//
//   softcell-serverd [--port N] [--port-file PATH] [--k N] [--topo-seed N]
//                    [--shards N] [--workers N] [--clauses N]
//                    [--connections N] [--ues-per-conn N]
//                    [--max-outbound BYTES]
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port as text so a driving script can discover it.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "net/dispatch.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#include "runtime/runtime.hpp"
#include "workload/wire_workload.hpp"

using namespace softcell;

namespace {

std::uint64_t arg_u64(int argc, char** argv, const char* flag,
                      std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0)
      return std::strtoull(argv[i + 1], nullptr, 10);
  }
  return fallback;
}

const char* arg_str(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  WireWorkloadConfig config;
  config.k = static_cast<std::uint32_t>(arg_u64(argc, argv, "--k", config.k));
  config.topo_seed = arg_u64(argc, argv, "--topo-seed", config.topo_seed);
  config.shards =
      static_cast<std::size_t>(arg_u64(argc, argv, "--shards", config.shards));
  config.workers =
      static_cast<unsigned>(arg_u64(argc, argv, "--workers", config.workers));
  config.num_clauses = static_cast<std::uint32_t>(
      arg_u64(argc, argv, "--clauses", config.num_clauses));
  config.connections = static_cast<std::uint32_t>(
      arg_u64(argc, argv, "--connections", config.connections));
  config.ues_per_conn = static_cast<std::uint32_t>(
      arg_u64(argc, argv, "--ues-per-conn", config.ues_per_conn));

  net::ControllerServer::Options server_opts;
  server_opts.port =
      static_cast<std::uint16_t>(arg_u64(argc, argv, "--port", 0));
  server_opts.max_outbound_bytes = static_cast<std::size_t>(arg_u64(
      argc, argv, "--max-outbound", server_opts.max_outbound_bytes));
  const char* port_file = arg_str(argc, argv, "--port-file");

  // Block the shutdown signals before any thread exists so every thread
  // inherits the mask and sigwait() below is the one consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  const CellularTopology topo = config.make_topology();
  std::vector<ClauseId> clauses;
  ShardBrain brain(topo, make_wire_policy(topo, config.num_clauses, &clauses),
                   {.shards = config.shards, .controller = {}});
  provision_wire_ues(brain, config, topo.num_base_stations());

  ControlPlaneRuntime runtime(
      brain, {.workers = config.workers, .queue_capacity = 8192});
  net::RuntimeDispatcher dispatcher(runtime, brain);

  net::EventLoop loop;
  if (!loop.ok()) {
    std::fprintf(stderr, "softcell-serverd: event loop setup failed\n");
    return 1;
  }
  net::ControllerServer server(loop, dispatcher, server_opts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "softcell-serverd: %s\n", err.c_str());
    return 1;
  }
  if (port_file) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "softcell-serverd: cannot write %s\n", port_file);
      return 1;
    }
  }
  std::printf("softcell-serverd: listening on 127.0.0.1:%u (%llu UEs, %u "
              "clauses, %zu shards, %u workers)\n",
              server.port(),
              static_cast<unsigned long long>(config.total_ues()),
              config.num_clauses, config.shards, config.workers);
  std::fflush(stdout);

  std::thread loop_thread([&] { loop.run(); });

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("softcell-serverd: signal %d, draining\n", sig);
  std::fflush(stdout);

  const bool drained = server.drain(std::chrono::milliseconds(5000));
  server.request_stop();
  loop_thread.join();

  const auto& stats = server.stats();
  const MetricsSnapshot metrics = runtime.metrics();
  std::printf(
      "softcell-serverd: %s (accepts=%llu packet_ins=%llu replies=%llu "
      "backpressure_drops=%llu dropped_replies=%llu decode_errors=%llu "
      "fetches=%llu inline_fetches=%llu)\n",
      drained ? "drained" : "drain timeout",
      static_cast<unsigned long long>(stats.accepts.load()),
      static_cast<unsigned long long>(stats.packet_ins.load()),
      static_cast<unsigned long long>(stats.replies_out.load()),
      static_cast<unsigned long long>(stats.backpressure_drops.load()),
      static_cast<unsigned long long>(stats.dropped_replies.load()),
      static_cast<unsigned long long>(stats.decode_errors.load()),
      static_cast<unsigned long long>(metrics.classifier_fetches),
      static_cast<unsigned long long>(metrics.inline_fetches));
  return 0;
}
