#include "telemetry/registry.hpp"

#include <algorithm>
#include <utility>

namespace softcell::telemetry {

std::uint64_t histogram_quantile_upper(std::span<const std::uint64_t> buckets,
                                       double q) noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  // Nearest-rank.
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen > rank) return histogram_bucket_upper(b);
  }
  return histogram_bucket_upper(buckets.size() - 1);
}

std::size_t this_thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricSlots;
  return slot;
}

// --- Snapshot ---------------------------------------------------------------

void Snapshot::counter(std::string_view name, std::uint64_t value) {
  Sample s;
  s.name.assign(name);
  s.type = Sample::Type::kCounter;
  s.count = value;
  samples_.push_back(std::move(s));
}

void Snapshot::gauge(std::string_view name, std::int64_t value) {
  Sample s;
  s.name.assign(name);
  s.type = Sample::Type::kGauge;
  s.value = value;
  samples_.push_back(std::move(s));
}

void Snapshot::histogram(std::string_view name,
                         std::span<const std::uint64_t> buckets) {
  Sample s;
  s.name.assign(name);
  s.type = Sample::Type::kHistogram;
  s.buckets.assign(buckets.begin(), buckets.end());
  for (std::uint64_t b : s.buckets) s.count += b;
  samples_.push_back(std::move(s));
}

void Snapshot::finish() {
  std::stable_sort(samples_.begin(), samples_.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.name < b.name;
                   });
  std::vector<Sample> merged;
  for (Sample& s : samples_) {
    if (!merged.empty() && merged.back().name == s.name &&
        merged.back().type == s.type) {
      Sample& dst = merged.back();
      switch (s.type) {
        case Sample::Type::kCounter:
          dst.count += s.count;
          break;
        case Sample::Type::kGauge:
          dst.value = s.value;  // last write wins
          break;
        case Sample::Type::kHistogram:
          dst.count += s.count;
          if (dst.buckets.size() < s.buckets.size()) {
            dst.buckets.resize(s.buckets.size(), 0);
          }
          for (std::size_t b = 0; b < s.buckets.size(); ++b) {
            dst.buckets[b] += s.buckets[b];
          }
          break;
      }
      continue;
    }
    merged.push_back(std::move(s));
  }
  samples_ = std::move(merged);
}

const Sample* Snapshot::find(std::string_view name) const {
  for (const Sample& s : samples_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t Snapshot::counter_value(std::string_view name) const {
  const Sample* s = find(name);
  return s == nullptr ? 0 : s->count;
}

// --- Registry ---------------------------------------------------------------

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  sc::LockGuard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  sc::LockGuard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  sc::LockGuard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Registry::CollectorHandle& Registry::CollectorHandle::operator=(
    CollectorHandle&& other) noexcept {
  if (this != &other) {
    reset();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
  }
  return *this;
}

void Registry::CollectorHandle::reset() {
  if (registry_ != nullptr) {
    registry_->remove_collector(id_);
    registry_ = nullptr;
  }
}

Registry::CollectorHandle Registry::add_collector(Collector fn) {
  sc::LockGuard lock(mu_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return CollectorHandle(this, id);
}

void Registry::remove_collector(std::uint64_t id) {
  sc::LockGuard lock(mu_);
  collectors_.erase(id);
}

Snapshot Registry::collect() {
  Snapshot snap;
  std::vector<Collector> collectors;
  {
    sc::LockGuard lock(mu_);
    for (const auto& [name, c] : counters_) snap.counter(name, c->value());
    for (const auto& [name, g] : gauges_) snap.gauge(name, g->value());
    for (const auto& [name, h] : histograms_) {
      const std::vector<std::uint64_t> buckets = h->fold();
      snap.histogram(name, buckets);
    }
    collectors.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) collectors.push_back(fn);
  }
  // Collectors run outside mu_: they take subsystem locks of their own and
  // must be free to call back into counter()/gauge()/histogram().
  for (const Collector& fn : collectors) fn(snap);
  snap.finish();
  return snap;
}

}  // namespace softcell::telemetry
