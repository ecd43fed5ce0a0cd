// Million-UE resident scale (ROADMAP item 2): replay a scaled Fig.6
// diurnal day that attaches 1,000,000 UEs across a k=8 fabric (1536 base
// stations), arm a re-arming idle timer per UE on the hierarchical timer
// wheel, open microflows for a 1/64 slice, and hold everything resident.
// On top of the monotone attach ramp, the day carries churn: a 1/16 slice
// detaches and re-attaches at a different base station (detach / re-idle
// churn) and a 1/32 slice rides mid-day handoff storms -- the resident
// population is worked, not just grown.
//
// Reported for the slab storage layout:
//   * control-plane resident bytes/UE (primary stores + path maps; target
//     <= 128),
//   * agent-side resident bytes/UE (UE records + flow slab),
//   * end-to-end events/s through the merged heap+wheel clock.
//
// Correctness check: the control fingerprint of the churned day must equal
// the pinned golden below.  A mismatch fails the bench (nonzero exit),
// which is what the tier-1 `scale` stage runs under SOFTCELL_SMOKE=1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "telemetry/export.hpp"
#include "workload/lte_trace.hpp"

using namespace softcell;

namespace {

// Control fingerprints of the churned day, pinned from the run in which
// the slab layout, the node-map layout and both brain modes all agreed.
// A different value means the control plane changed behaviour.
constexpr std::uint64_t kGoldenSmokeFingerprint = 0x65cfa7499000995full;
constexpr std::uint64_t kGoldenFullFingerprint = 0x8d92d707b0fe7b6cull;

struct ScaleParams {
  std::uint32_t k = 8;
  std::uint32_t cluster_size = 12;  // 8 pods x 16 clusters x 12 = 1536 BS
  std::uint32_t num_ues = 1'000'000;
  double duration_s = 86'400.0;
  double idle_period_s = 21'600.0;  // 6 h; each UE re-arms until day end
  std::uint32_t flow_stride = 64;   // 1/64 of UEs open a microflow
  // Churn on the resident population (ROADMAP item 2 headroom): a 1/16
  // slice detaches one idle period after arrival and re-attaches at a
  // different base station a period later (detach / re-idle churn), and a
  // 1/32 slice rides a handoff storm to its ring neighbor mid-day.
  std::uint32_t churn_stride = 16;
  std::uint32_t storm_stride = 32;
};

struct DayResult {
  std::uint64_t events = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t flows = 0;
  std::uint64_t detaches = 0;     // churn slice: detach events executed
  std::uint64_t reattaches = 0;   // churn slice: re-attach events executed
  std::uint64_t handoffs = 0;     // storm slice: completed handoffs
  double wall_s = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t ctrl_bytes = 0;   // primary store(s) + path maps
  std::uint64_t agent_bytes = 0;  // sum over agents (UE + flow state)
};

// Re-arming idle timer: models periodic bearer/paging refresh without
// mutating control state (so the fingerprint covers exactly the attach,
// flow, churn and handoff history).
struct IdleLoop {
  EventQueue* q;
  double period;
  double end;
  std::uint64_t* fires;
  void operator()() const {
    ++*fires;
    if (q->now() + period < end) q->timer_after(period, *this);
  }
};

// Attach times follow the diurnal curve: split the day into minute bins
// weighted by the curve and hand each UE a deterministic slot.
std::vector<double> diurnal_attach_times(const ScaleParams& p) {
  LteTraceGenerator gen({.seed = 42});
  constexpr std::size_t kBins = 1440;
  const double bin_w = p.duration_s / kBins;
  std::vector<double> weight(kBins);
  double total = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    weight[b] = gen.diurnal((b + 0.5) * bin_w * (86'400.0 / p.duration_s),
                            /*amplitude=*/0.75);
    total += weight[b];
  }
  std::vector<double> times;
  times.reserve(p.num_ues);
  double carry = 0;
  for (std::size_t b = 0; b < kBins && times.size() < p.num_ues; ++b) {
    carry += weight[b] / total * static_cast<double>(p.num_ues);
    std::size_t n = static_cast<std::size_t>(carry);
    carry -= static_cast<double>(n);
    for (std::size_t i = 0; i < n && times.size() < p.num_ues; ++i)
      times.push_back(bin_w * (static_cast<double>(b) +
                               (i + 0.5) / static_cast<double>(n)));
  }
  while (times.size() < p.num_ues)  // rounding remainder: park at day end
    times.push_back(p.duration_s * 0.999);
  return times;
}

DayResult run_day(const ScaleParams& p,
                  const std::vector<double>& attach_times) {
  DayResult out;

  SoftCellConfig config;
  config.topo = {.k = p.k, .cluster_size = p.cluster_size, .seed = 91};
  SoftCellNetwork net(config, make_table1_policy());
  const std::uint32_t num_bs = net.topology().num_base_stations();

  EventQueue q;
  std::uint64_t flows = 0, denied = 0;
  Ipv4Addr server = 0x08000001u;
  const std::uint16_t ports[4] = {80, 443, 1935, 5060};

  for (std::uint32_t i = 0; i < p.num_ues; ++i) {
    const double t = attach_times[i];
    const std::uint32_t bs = i % num_bs;
    q.at(t, [&, i, bs, t] {
      SubscriberProfile prof;
      prof.plan = static_cast<BillingPlan>(i % 3);
      prof.device = static_cast<DeviceClass>(i % 5);
      const UeId ue = net.add_subscriber(prof);
      net.attach(ue, bs);
      q.timer_after(p.idle_period_s,
                    IdleLoop{&q, p.idle_period_s, p.duration_s,
                             &out.timer_fires});
      if (i % p.flow_stride == 0) {
        const auto flow = net.open_flow(ue, server + i, ports[i % 4]);
        const auto d = net.send_uplink(flow, TcpFlag::kSyn);
        if (d.delivered)
          ++flows;
        else
          ++denied;
        // A short bearer timer armed and immediately disarmed: the cancel
        // path (generation-checked lazy cancel) at scale.
        const auto bearer = q.timer_after(60.0, [] {});
        (void)q.cancel_timer(bearer);
      }
      // Detach / re-idle churn: this slice goes idle-deep one period after
      // arrival and comes back at a different base station a period later
      // -- the control plane must absorb sustained location churn on the
      // resident population, not just monotone growth.
      if (i % p.churn_stride == 1 &&
          t + 2 * p.idle_period_s < p.duration_s) {
        q.at(t + p.idle_period_s, [&, ue] {
          net.detach(ue);
          ++out.detaches;
        });
        q.at(t + 2 * p.idle_period_s, [&, ue, bs] {
          net.attach(ue, (bs + 7) % num_bs);
          ++out.reattaches;
        });
      }
      // Handoff storm: this slice moves to its ring neighbor mid-day, all
      // within one simulated minute per storm wave (4 waves), exercising
      // shortcut install/teardown bursts against resident state.
      if (i % p.storm_stride == 3) {
        const double wave =
            p.duration_s * (0.55 + 0.1 * static_cast<double>(i % 4));
        if (wave > t + p.idle_period_s) {
          q.at(wave, [&, ue, bs] {
            const auto ticket = net.handoff(ue, (bs + 1) % num_bs);
            net.complete_handoff(ticket);
            ++out.handoffs;
          });
        }
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  out.events = q.run();
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.flows = flows;

  out.fingerprint = net.control_fingerprint();
  const auto fp = net.controller().memory_footprint();
  out.ctrl_bytes = fp.store_primary + fp.path_maps;
  // UE locations live on the brain's per-shard stores, not the core's, so
  // resident control bytes include the shard stores' sum.
  const ShardBrain& brain = *net.brain();
  for (std::size_t s = 0; s < brain.shard_count(); ++s)
    out.ctrl_bytes += brain.shard(s).store_primary_bytes_resident();
  for (std::uint32_t bs = 0; bs < num_bs; ++bs)
    out.agent_bytes += net.agent(bs).bytes_resident();

  std::printf(
      "  %9llu events %.2fs wall (%8.0f ev/s) | %7llu timer fires |"
      " %6llu flows (%llu denied) | churn %llu-%llu | %llu handoffs\n",
      static_cast<unsigned long long>(out.events),
      out.wall_s, static_cast<double>(out.events) / out.wall_s,
      static_cast<unsigned long long>(out.timer_fires),
      static_cast<unsigned long long>(flows),
      static_cast<unsigned long long>(denied),
      static_cast<unsigned long long>(out.detaches),
      static_cast<unsigned long long>(out.reattaches),
      static_cast<unsigned long long>(out.handoffs));
  std::printf(
      "  ctrl %.1f B/UE (core store %llu + paths %llu) | agents %.1f B/UE\n",
      static_cast<double>(out.ctrl_bytes) / p.num_ues,
      static_cast<unsigned long long>(fp.store_primary),
      static_cast<unsigned long long>(fp.path_maps),
      static_cast<double>(out.agent_bytes) / p.num_ues);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  const char* smoke_env = std::getenv("SOFTCELL_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';

  ScaleParams p;
  if (smoke) {
    p.k = 4;
    p.cluster_size = 10;  // 160 base stations
    p.num_ues = 20'000;
    p.duration_s = 3'600.0;
    p.idle_period_s = 600.0;
  }

  std::printf("=== Million-UE resident scale ===\n");
  std::printf("(k=%u, %u UEs over a %.0fs diurnal day)\n\n", p.k, p.num_ues,
              p.duration_s);

  const DayResult r = run_day(p, diurnal_attach_times(p));

  const std::uint64_t golden =
      smoke ? kGoldenSmokeFingerprint : kGoldenFullFingerprint;
  const bool matches_golden = r.fingerprint == golden;
  const double ctrl_per_ue = static_cast<double>(r.ctrl_bytes) / p.num_ues;
  const bool meets_target = ctrl_per_ue <= 128.0;
  std::printf("\n  fingerprint %016llx: %s the pinned golden %016llx\n",
              static_cast<unsigned long long>(r.fingerprint),
              matches_golden ? "MATCHES" : "DIFFERS FROM",
              static_cast<unsigned long long>(golden));
  std::printf("  control-plane bytes/UE: %.1f (target <= 128: %s)\n",
              ctrl_per_ue, meets_target ? "met" : "MISSED");

  telemetry::BenchReport report("million_ue");
  report.meta_bool("smoke", smoke);
  report.meta_u64("k", p.k);
  report.meta_u64("num_ues", p.num_ues);
  report.meta_num("duration_s", p.duration_s, 0);
  report.meta_bool("fingerprint_matches_golden", matches_golden);
  report.meta_num("slab_ctrl_bytes_per_ue", ctrl_per_ue, 2);
  report.meta_bool("ctrl_bytes_target_met", meets_target);
  auto row = report.row();
  row.begin_object()
      .str("layout", "slab")
      .u64("events", r.events)
      .u64("timer_fires", r.timer_fires)
      .u64("flows", r.flows)
      .u64("detaches", r.detaches)
      .u64("reattaches", r.reattaches)
      .u64("handoffs", r.handoffs)
      .num("wall_s", r.wall_s, 3)
      .num("events_per_s", static_cast<double>(r.events) / r.wall_s, 0)
      .u64("ctrl_bytes", r.ctrl_bytes)
      .num("ctrl_bytes_per_ue", ctrl_per_ue, 2)
      .u64("agent_bytes", r.agent_bytes)
      .num("agent_bytes_per_ue",
           static_cast<double>(r.agent_bytes) / p.num_ues, 2)
      .u64("fingerprint", r.fingerprint)
      .end_object();
  report.add_row(std::move(row));
  if (!report.write(out_path))
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
  else
    std::printf("\nwrote %s\n", out_path.c_str());

  if (!matches_golden) {
    std::fprintf(stderr, "FAIL: fingerprint differs from the pinned golden\n");
    return 1;
  }
  return 0;
}
