// perfbench workloads: the one server shape, the three traffic mixes and
// their seeded request streams.
//
// Every consumer -- the 1-worker in-process reference, the wire load
// generator and the in-process layer ladder -- rebuilds the same streams
// from (workload, seed, seconds), so they all see byte-identical requests
// without shipping them between processes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ofp/codec.hpp"
#include "workload/wire_workload.hpp"

namespace perfbench {

// The server shape all three workloads share: k=8 (1280 BS), 64 clauses,
// 1,000,000 provisioned UEs, 8 shards, 2 runtime workers.  softcell-serverd
// gets the same values as flags (run.py), the in-process layers from here.
[[nodiscard]] softcell::WireWorkloadConfig server_config();

// One generator thread drives two connections.
inline constexpr unsigned kGenConnections = 2;
// Closed-loop (Cbench) window per connection.
inline constexpr unsigned kSatWindow = 16;
// The served run alternates this many open-loop and closed-loop segments.
inline constexpr std::uint64_t kRounds = 3;
// Closed-loop throughput is the median rate over this many chunks.
inline constexpr std::size_t kSatChunks = 12;
// Open-loop p50 is the median over this many consecutive windows.
inline constexpr std::size_t kWindows = 12;

enum class Mix : std::uint8_t { kFetch1m, kMixed1m, kInstallCold };

struct MixSpec {
  std::string_view name;
  Mix mix;
  double rate;       // open-loop offered rate, requests/s
  double sat_rate;   // expected closed-loop rate; sizes the fixed sat phase
  bool path_primary; // latency metrics are over path replies, not fetches
};

// nullptr for an unknown name.
[[nodiscard]] const MixSpec* find_mix(std::string_view name);

// The fixed request streams of one run.  xids are global indices: open[i]
// carries xid i, sat[j] carries xid open.size() + j.  Request x goes out on
// connection x % kGenConnections.
struct Streams {
  const MixSpec* spec = nullptr;
  std::uint64_t warmup = 0;  // leading open-loop requests left out of stats
  std::vector<softcell::ofp::PacketInMsg> open;
  std::vector<softcell::ofp::PacketInMsg> sat;

  [[nodiscard]] std::uint64_t total() const { return open.size() + sat.size(); }
  [[nodiscard]] const softcell::ofp::PacketInMsg& at(std::uint64_t xid) const {
    return xid < open.size() ? open[xid] : sat[xid - open.size()];
  }
  // Intended send time of the i-th request of an open-loop stretch,
  // relative to the stretch's start.
  [[nodiscard]] std::uint64_t intended_ns(std::uint64_t i) const {
    return static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 /
                                      spec->rate);
  }
  [[nodiscard]] std::uint64_t path_requests() const;
};

// Builds the streams for `seconds` of measurement: 60% of it open-loop at
// the mix's rate, and a fixed closed-loop request count sized to ~30% at
// the expected saturation rate.  Path keys (bs, clause) are drawn without
// replacement, so every path request is a first install.  Throws
// std::runtime_error when the run would need more keys than exist.
[[nodiscard]] Streams make_streams(const MixSpec& spec, std::uint64_t seed,
                                   double seconds, std::uint32_t num_bs,
                                   std::span<const softcell::ClauseId> clauses);

// --- exact percentiles -------------------------------------------------------

// Nearest-rank percentiles over every recorded sample.  p99 is reported
// only when at least ten samples lie beyond it (n >= 1000); otherwise
// p99_ok is false.
struct Percentiles {
  std::uint64_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  bool p99_ok = false;
};
[[nodiscard]] Percentiles percentiles(std::vector<double> samples);

// Splits time-ordered samples into `windows` consecutive equal runs and
// returns each run's q-quantile, in time order.
[[nodiscard]] std::vector<double> window_quantiles(
    const std::vector<double>& in_time_order, std::size_t windows, double q);

// Closed-loop throughput: completions sorted by time are cut into
// `chunks` equal runs, and each run's rate (requests/s) is returned; the
// median of them moves at most one chunk per stall of the host.
[[nodiscard]] std::vector<double> chunk_rates(std::vector<std::uint64_t> done_ns,
                                              std::uint64_t start_ns,
                                              std::size_t chunks);

// Median of the values; 0 when there are none.
[[nodiscard]] double median(std::vector<double> values);

// "name p50=... p90=... p99=... (n=..., beyond p99)" for the report.
[[nodiscard]] std::string describe(std::string_view name,
                                   const Percentiles& p,
                                   std::string_view unit);

// Quantile of a telemetry histogram, interpolated linearly inside the
// bucket that holds the rank (the registry only keeps log-linear buckets,
// so this is an estimate within the bucket's width).
[[nodiscard]] double histogram_quantile(std::span<const std::uint64_t> buckets,
                                        double q);

// --- result output -----------------------------------------------------------

// Accumulates "name": value pairs and prints them as one JSON object.
class JsonOut {
 public:
  void num(std::string_view key, double value);
  void boolean(std::string_view key, bool value);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

}  // namespace perfbench
