#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "net/dispatch.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

using softcell::ofp::PacketInMsg;
using softcell::ofp::PacketInReply;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Base::Base() : topo(server_config().make_topology()) {
  (void)softcell::make_wire_policy(topo, server_config().num_clauses,
                                   &clauses);
}

Brain build_brain() {
  const softcell::WireWorkloadConfig config = server_config();
  Brain b;
  auto t0 = Clock::now();
  b.topo = std::make_unique<softcell::CellularTopology>(config.make_topology());
  b.brain = std::make_unique<softcell::ShardBrain>(
      *b.topo, softcell::make_wire_policy(*b.topo, config.num_clauses, nullptr),
      softcell::ShardBrainOptions{.shards = config.shards, .controller = {}});
  b.brain_s = since(t0);
  t0 = Clock::now();
  softcell::provision_wire_ues(*b.brain, config, b.topo->num_base_stations());
  b.provision_s = since(t0);
  return b;
}

Reference run_reference(const Streams& s) {
  Brain b = build_brain();
  softcell::ControlPlaneRuntime runtime(*b.brain,
                                        {.workers = 1, .queue_capacity = 8192});
  softcell::net::RuntimeDispatcher dispatcher(runtime, *b.brain);

  Reference ref;
  const bool keep = s.spec->mix == Mix::kFetch1m;
  if (keep) {
    ref.digest.assign(s.total(), 0);
    ref.count.assign(s.total(), 0);
  }
  // At most kWindow requests in flight, well inside the worker ring: a
  // producer that meets a full ring loses the request's completion (the
  // pool's retry re-pushes a moved-from job), and the reference must see
  // every reply.
  constexpr std::uint64_t kWindow = 1024;
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> done{0};
  for (std::uint64_t x = 0; x < s.total(); ++x) {
    while (x - done.load(std::memory_order_acquire) >= kWindow)
      std::this_thread::yield();
    dispatcher.dispatch(s.at(x), [&](PacketInReply&& r) {
      if (!r.ok) errors.fetch_add(1, std::memory_order_relaxed);
      if (keep) {
        ref.digest[r.xid] = r.digest;
        ref.count[r.xid] = r.classifier_count;
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  dispatcher.drain();
  if (done.load() != s.total())
    throw std::runtime_error("reference run lost completions");
  ref.errors = errors.load();
  ref.path_requests = s.path_requests();
  ref.core_rules = b.brain->core().engine().total_rules();
  ref.core_installs = b.brain->core().path_installs();
  ref.fingerprint = dispatcher.fingerprint();
  return ref;
}

// File layout: six u64 header words, then (for fetch_1m) n digests and n
// counts.  Written and read on the same host, so native byte order.
void write_reference(const std::string& path, const Reference& ref) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t header[6] = {ref.fingerprint,   ref.core_rules,
                                   ref.core_installs, ref.path_requests,
                                   ref.errors,        ref.digest.size()};
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  out.write(reinterpret_cast<const char*>(ref.digest.data()),
            static_cast<std::streamsize>(ref.digest.size() * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(ref.count.data()),
            static_cast<std::streamsize>(ref.count.size() * sizeof(std::uint32_t)));
  if (!out) throw std::runtime_error("cannot write " + path);
}

Reference read_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t header[6] = {};
  in.read(reinterpret_cast<char*>(header), sizeof header);
  Reference ref;
  ref.fingerprint = header[0];
  ref.core_rules = header[1];
  ref.core_installs = header[2];
  ref.path_requests = header[3];
  ref.errors = header[4];
  ref.digest.resize(header[5]);
  ref.count.resize(header[5]);
  in.read(reinterpret_cast<char*>(ref.digest.data()),
          static_cast<std::streamsize>(ref.digest.size() * sizeof(std::uint64_t)));
  in.read(reinterpret_cast<char*>(ref.count.data()),
          static_cast<std::streamsize>(ref.count.size() * sizeof(std::uint32_t)));
  if (!in) throw std::runtime_error("cannot read " + path);
  return ref;
}

}  // namespace perfbench
