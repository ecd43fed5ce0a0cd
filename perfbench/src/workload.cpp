#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

using softcell::ClauseId;
using softcell::UeId;
using softcell::ofp::PacketInMsg;

softcell::WireWorkloadConfig server_config() {
  softcell::WireWorkloadConfig c;
  c.k = 8;
  c.topo_seed = 1;
  c.num_clauses = 64;
  c.connections = 15625;
  c.ues_per_conn = 64;
  c.shards = 8;
  c.workers = 2;
  return c;
}

namespace {

constexpr std::array<MixSpec, 3> kMixes{{
    {"fetch_1m", Mix::kFetch1m, 100'000, 450'000, false},
    {"mixed_1m", Mix::kMixed1m, 100'000, 250'000, false},
    {"install_cold", Mix::kInstallCold, 2'000, 2'500, true},
}};

// Draws (bs, clause) keys without replacement (incremental Fisher-Yates)
// and turns each into a path request from a UE attached at that bs whose
// provider maps to that clause.
class KeySource {
 public:
  KeySource(const softcell::WireWorkloadConfig& config, std::uint32_t num_bs,
            std::span<const ClauseId> clauses)
      : num_bs_(num_bs),
        ues_per_conn_(config.ues_per_conn),
        clauses_(clauses),
        replicas_(config.total_ues() /
                  (static_cast<std::uint64_t>(num_bs) * config.ues_per_conn)),
        keys_(static_cast<std::size_t>(num_bs) * clauses.size()) {
    // UE index i sits at bs (i / ues_per_conn) % num_bs with provider
    // i % num_clauses; the key -> UE mapping below needs both to line up.
    if (config.ues_per_conn % clauses.size() != 0 || replicas_ == 0)
      throw std::runtime_error("server shape cannot address every key");
    std::iota(keys_.begin(), keys_.end(), 0u);
  }

  PacketInMsg next(softcell::Rng& rng) {
    if (drawn_ == keys_.size())
      throw std::runtime_error("workload needs more (bs, clause) keys than exist");
    const std::size_t pick = drawn_ + rng.next_below(keys_.size() - drawn_);
    std::swap(keys_[drawn_], keys_[pick]);
    const std::uint32_t key = keys_[drawn_++];
    const std::uint32_t bs = key / static_cast<std::uint32_t>(clauses_.size());
    const std::uint32_t c = key % static_cast<std::uint32_t>(clauses_.size());
    const std::uint64_t rep = rng.next_below(replicas_);
    const std::uint64_t index = (bs + num_bs_ * rep) * ues_per_conn_ + c;
    PacketInMsg msg;
    msg.kind = PacketInMsg::Kind::kPolicyPath;
    msg.ue = UeId(static_cast<std::uint32_t>(index + 1));
    msg.bs = bs;
    msg.clause = clauses_[c];
    return msg;
  }

 private:
  std::uint64_t num_bs_;
  std::uint64_t ues_per_conn_;
  std::span<const ClauseId> clauses_;
  std::uint64_t replicas_;
  std::vector<std::uint32_t> keys_;
  std::size_t drawn_ = 0;
};

PacketInMsg uniform_fetch(softcell::Rng& rng,
                          const softcell::WireWorkloadConfig& config,
                          std::uint32_t num_bs) {
  const std::uint64_t index = rng.next_below(config.total_ues());
  PacketInMsg msg;
  msg.kind = PacketInMsg::Kind::kFetchClassifiers;
  msg.ue = UeId(static_cast<std::uint32_t>(index + 1));
  msg.bs = static_cast<std::uint32_t>((index / config.ues_per_conn) % num_bs);
  return msg;
}

}  // namespace

const MixSpec* find_mix(std::string_view name) {
  for (const MixSpec& m : kMixes)
    if (m.name == name) return &m;
  return nullptr;
}

std::uint64_t Streams::path_requests() const {
  std::uint64_t n = 0;
  for (std::uint64_t x = 0; x < total(); ++x)
    n += at(x).kind == PacketInMsg::Kind::kPolicyPath ? 1 : 0;
  return n;
}

Streams make_streams(const MixSpec& spec, std::uint64_t seed, double seconds,
                     std::uint32_t num_bs, std::span<const ClauseId> clauses) {
  const softcell::WireWorkloadConfig config = server_config();
  Streams s;
  s.spec = &spec;
  const auto n_open =
      static_cast<std::uint64_t>(std::llround(spec.rate * 0.6 * seconds));
  const auto n_sat = static_cast<std::uint64_t>(
      std::llround(spec.sat_rate * 0.3 * seconds / kGenConnections) *
      kGenConnections);
  s.warmup = static_cast<std::uint64_t>(std::llround(spec.rate * 0.05 * seconds));

  softcell::Rng rng =
      softcell::Rng::stream(seed, 0x7065726662ull + static_cast<unsigned>(spec.mix));
  KeySource keys(config, num_bs, clauses);
  std::uint64_t path_slot = 0;  // kMixed1m: position of the path request
  const auto next = [&](std::uint64_t i) {
    switch (spec.mix) {
      case Mix::kFetch1m:
        return uniform_fetch(rng, config, num_bs);
      case Mix::kMixed1m:
        // Exactly one path request per block of 100, at a random position.
        if (i % 100 == 0) path_slot = rng.next_below(100);
        return i % 100 == path_slot ? keys.next(rng)
                                    : uniform_fetch(rng, config, num_bs);
      case Mix::kInstallCold:
        return keys.next(rng);
    }
    throw std::logic_error("unknown mix");
  };
  s.open.reserve(n_open);
  for (std::uint64_t i = 0; i < n_open; ++i) {
    s.open.push_back(next(i));
    s.open.back().xid = static_cast<std::uint32_t>(i);
  }
  s.sat.reserve(n_sat);
  for (std::uint64_t j = 0; j < n_sat; ++j) {
    s.sat.push_back(next(n_open + j));
    s.sat.back().xid = static_cast<std::uint32_t>(n_open + j);
  }
  return s;
}

namespace {

// Nearest-rank quantile of sorted, non-empty samples.
double rank(const std::vector<double>& sorted, double q) {
  const auto r = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[r == 0 ? 0 : r - 1];
}

}  // namespace

Percentiles percentiles(std::vector<double> samples) {
  Percentiles p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = rank(samples, 0.50);
  p.p90 = rank(samples, 0.90);
  p.p99_ok = samples.size() >= 1000;
  if (p.p99_ok) p.p99 = rank(samples, 0.99);
  return p;
}

std::string describe(std::string_view name, const Percentiles& p,
                     std::string_view unit) {
  const int nl = static_cast<int>(name.size());
  const int ul = static_cast<int>(unit.size());
  char buf[256];
  if (p.p99_ok) {
    std::snprintf(buf, sizeof buf,
                  "%.*s p50=%.3f %.*s p90=%.3f %.*s p99=%.3f %.*s "
                  "(n=%llu, %llu beyond p99)",
                  nl, name.data(), p.p50, ul, unit.data(), p.p90, ul,
                  unit.data(), p.p99, ul, unit.data(),
                  static_cast<unsigned long long>(p.n),
                  static_cast<unsigned long long>(p.n / 100));
  } else {
    std::snprintf(buf, sizeof buf,
                  "%.*s p50=%.3f %.*s p90=%.3f %.*s (n=%llu, too few "
                  "samples for p99)",
                  nl, name.data(), p.p50, ul, unit.data(), p.p90, ul,
                  unit.data(), static_cast<unsigned long long>(p.n));
  }
  return buf;
}

std::vector<double> window_quantiles(const std::vector<double>& in_time_order,
                                     std::size_t windows, double q) {
  windows = std::min(windows, in_time_order.size());
  std::vector<double> values;
  if (windows == 0) return values;
  const std::size_t per = in_time_order.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = in_time_order.begin() + static_cast<std::ptrdiff_t>(w * per);
    std::vector<double> window(first, first + static_cast<std::ptrdiff_t>(per));
    std::sort(window.begin(), window.end());
    values.push_back(rank(window, q));
  }
  return values;
}

std::vector<double> chunk_rates(std::vector<std::uint64_t> done_ns,
                                std::uint64_t start_ns, std::size_t chunks) {
  chunks = std::min(chunks, done_ns.size());
  std::vector<double> rates;
  if (chunks == 0) return rates;
  std::sort(done_ns.begin(), done_ns.end());
  const std::size_t per = done_ns.size() / chunks;
  std::uint64_t prev = start_ns;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t end = done_ns[(c + 1) * per - 1];
    rates.push_back(static_cast<double>(per) * 1e9 /
                    static_cast<double>(std::max<std::uint64_t>(end - prev, 1)));
    prev = end;
  }
  return rates;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double histogram_quantile(std::span<const std::uint64_t> buckets, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (static_cast<double>(seen + buckets[b]) >= rank) {
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(softcell::telemetry::histogram_bucket_upper(b - 1));
      const double hi =
          static_cast<double>(softcell::telemetry::histogram_bucket_upper(b));
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    seen += buckets[b];
  }
  return static_cast<double>(
      softcell::telemetry::histogram_bucket_upper(buckets.size() - 1));
}

void JsonOut::key(std::string_view k) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += k;
  body_ += "\": ";
}

void JsonOut::num(std::string_view k, double value) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
}

void JsonOut::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
}

}  // namespace perfbench
