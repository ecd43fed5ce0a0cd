#include "workload/wire_workload.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/client.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/registry.hpp"

namespace softcell {

ServicePolicy make_wire_policy(const CellularTopology& topo,
                               std::uint32_t num_clauses,
                               std::vector<ClauseId>* ids) {
  ServicePolicy policy;
  for (std::uint32_t c = 0; c < num_clauses; ++c) {
    std::vector<MbType> seq{0u, 1u + (c % (topo.num_middlebox_types() - 1))};
    const ClauseId id =
        policy.add_clause(10 + c, Predicate::provider_is(100 + c),
                          ServiceAction{true, seq, QosClass::kBestEffort});
    if (ids) ids->push_back(id);
  }
  return policy;
}

void provision_wire_ues(ControlBrain& brain, const WireWorkloadConfig& config,
                        std::uint32_t num_bs) {
  const std::uint64_t total = config.total_ues();
  for (std::uint64_t i = 0; i < total; ++i) {
    const UeId ue(static_cast<std::uint32_t>(i + 1));
    SubscriberProfile p;
    p.ue = ue;
    p.provider = 100 + static_cast<std::uint32_t>(i % config.num_clauses);
    brain.provision_subscriber(ue, p);
    const auto bs =
        static_cast<std::uint32_t>((i / config.ues_per_conn) % num_bs);
    brain.attach_ue(ue, bs, LocalUeId(static_cast<std::uint16_t>(i & 0xFFFF)));
  }
}

WireRequestGen::WireRequestGen(const WireWorkloadConfig& config,
                               std::uint32_t num_bs,
                               std::span<const ClauseId> clauses,
                               std::uint32_t conn)
    // Stream ids offset by 1000 so the generator streams never collide
    // with the worker streams the in-process benches draw (stream 0..W).
    : rng_(Rng::stream(config.seed, 1000 + conn)),
      total_ues_(config.total_ues()),
      ues_per_conn_(config.ues_per_conn),
      num_bs_(num_bs),
      path_ratio_(config.path_request_ratio),
      clauses_(clauses.begin(), clauses.end()) {}

ofp::PacketInMsg WireRequestGen::next() {
  const std::uint64_t idx = rng_.next_below(total_ues_);
  ofp::PacketInMsg msg;
  msg.xid = xid_++;
  msg.ue = UeId(static_cast<std::uint32_t>(idx + 1));
  msg.bs = static_cast<std::uint32_t>((idx / ues_per_conn_) % num_bs_);
  if (rng_.next_double() < path_ratio_) {
    msg.kind = ofp::PacketInMsg::Kind::kPolicyPath;
    msg.clause = clauses_[idx % clauses_.size()];
  } else {
    msg.kind = ofp::PacketInMsg::Kind::kFetchClassifiers;
  }
  return msg;
}

std::uint64_t run_wire_workload_inprocess(const CellularTopology& topo,
                                          const WireWorkloadConfig& config) {
  std::vector<ClauseId> clauses;
  ShardBrain brain(topo, make_wire_policy(topo, config.num_clauses, &clauses),
                   {.shards = config.shards, .controller = {}});
  const std::uint32_t num_bs = topo.num_base_stations();
  provision_wire_ues(brain, config, num_bs);

  ControlPlaneRuntime runtime(
      brain, {.workers = config.workers, .queue_capacity = 8192});
  net::RuntimeDispatcher dispatcher(runtime, brain);

  // The same per-connection streams the wire client sends, dispatched
  // through the same boundary; completions are fire-and-forget because the
  // reference only needs the final state, not the replies.
  for (std::uint32_t c = 0; c < config.connections; ++c) {
    WireRequestGen gen(config, num_bs, clauses, c);
    for (std::uint64_t i = 0; i < config.requests_per_conn; ++i) {
      dispatcher.dispatch(gen.next(), [](ofp::PacketInReply&&) {});
    }
  }
  dispatcher.drain();
  return dispatcher.fingerprint();
}

WireLoadResult run_wire_load(std::uint16_t port, std::uint32_t num_bs,
                             std::span<const ClauseId> clauses,
                             const WireWorkloadConfig& config) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kReplyTimeout = std::chrono::milliseconds(10'000);

  WireLoadResult result;
  telemetry::Histogram latency;  // thread-sharded; all conns record into it
  std::atomic<std::uint64_t> sent{0}, received{0}, failed{0};
  sc::Mutex err_mu;
  std::string first_error;
  const auto report = [&](const std::string& e) {
    sc::LockGuard lock(err_mu);
    if (first_error.empty()) first_error = e;
  };

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (std::uint32_t c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      net::WireConn conn;
      std::string err;
      if (!conn.connect(port, &err)) {
        report("connect: " + err);
        return;
      }
      WireRequestGen gen(config, num_bs, clauses, c);
      std::unordered_map<std::uint32_t, Clock::time_point> inflight;
      inflight.reserve(config.max_outstanding);
      std::uint64_t next = 0;
      std::uint64_t done = 0;
      std::vector<std::uint8_t> batch;
      while (done < config.requests_per_conn) {
        // Refill the window, batching the encodes into one send.
        batch.clear();
        const auto now = Clock::now();
        while (inflight.size() < config.max_outstanding &&
               next < config.requests_per_conn) {
          const ofp::PacketInMsg msg = gen.next();
          ofp::encode_packet_in_into(batch, msg);
          inflight.emplace(msg.xid, now);
          ++next;
        }
        if (!batch.empty()) {
          if (!conn.send_bytes(batch)) {
            report("send failed");
            return;
          }
          sent.fetch_add(batch.size() / ofp::kPacketInSize,
                         std::memory_order_relaxed);
        }
        const auto frame = conn.recv_frame(kReplyTimeout);
        if (!frame) {
          report("reply timeout / connection lost");
          return;
        }
        const auto reply = ofp::decode_packet_in_reply(*frame);
        if (!reply) {
          report("undecodable reply frame");
          return;
        }
        const auto it = inflight.find(reply->xid);
        if (it == inflight.end()) {
          report("reply for unknown xid");
          return;
        }
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - it->second)
                            .count();
        latency.record(static_cast<std::uint64_t>(us));
        inflight.erase(it);
        received.fetch_add(1, std::memory_order_relaxed);
        if (!reply->ok) failed.fetch_add(1, std::memory_order_relaxed);
        ++done;
      }
    });
  }
  for (auto& t : threads) t.join();
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.sent = sent.load();
  result.received = received.load();
  result.failed = failed.load();
  result.latency_buckets = latency.fold();
  {
    sc::LockGuard lock(err_mu);
    result.error = first_error;
  }
  if (!result.error.empty()) return result;

  // Post-run server stats over a fresh connection: the load threads have
  // collected every outstanding reply, so the controller has quiesced and
  // the canonical fingerprint is stable.
  net::WireConn probe;
  std::string err;
  if (!probe.connect(port, &err)) {
    result.error = "stats connect: " + err;
    return result;
  }
  const auto stats = probe.server_stats(0xFFFFFFFF);
  if (!stats) {
    result.error = "server stats request failed";
    return result;
  }
  result.server = *stats;
  result.ok = true;
  return result;
}

}  // namespace softcell
