// The layer ladder: the same streams replayed in-process at each layer the
// wire path crosses, each rung on a freshly provisioned brain so path
// requests stay first installs.
//
//   dispatch  net::RuntimeDispatcher::dispatch, open loop at the mix's rate,
//             then closed loop with the wire's total window
//   runtime   ControlPlaneRuntime::post with a bare completion, same pacing
//   direct    ShardBrain calls from 1 thread, then from 2 shard-affine
//             threads, back to back
//
// A ControlBrain decorator (TimedBrain) times every fetch / path call into
// the ShardBrain; the completion that runs right after on the same worker
// picks the time up, so each request's brain span becomes the child of its
// dispatch or runtime span.  Spans stay in memory, indexed by xid, and a
// sample is written to the span file at the end.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "net/dispatch.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {

using softcell::ControlBrain;
using softcell::ofp::PacketInMsg;

namespace {

struct CallSpan {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};
thread_local CallSpan t_last_call;

// Times every request-path call into the wrapped brain; everything else
// forwards untouched.
class TimedBrain final : public ControlBrain {
 public:
  explicit TimedBrain(softcell::ShardBrain& inner) : inner_(inner) {}

  std::size_t shard_count() const override { return inner_.shard_count(); }
  std::size_t shard_of(softcell::UeId ue) const override {
    return inner_.shard_of(ue);
  }
  void provision_subscriber(softcell::UeId ue,
                            const softcell::SubscriberProfile& p) override {
    inner_.provision_subscriber(ue, p);
  }
  void attach_ue(softcell::UeId ue, std::uint32_t bs,
                 softcell::LocalUeId local) override {
    inner_.attach_ue(ue, bs, local);
  }
  void detach_ue(softcell::UeId ue) override { inner_.detach_ue(ue); }
  void update_location(softcell::UeId ue, std::uint32_t bs,
                       softcell::LocalUeId local) override {
    inner_.update_location(ue, bs, local);
  }
  std::optional<softcell::UeLocation> ue_location(
      softcell::UeId ue) const override {
    return inner_.ue_location(ue);
  }
  std::vector<softcell::PacketClassifier> fetch_classifiers(
      softcell::UeId ue, std::uint32_t bs) const override {
    t_last_call.start = now_ns();
    auto out = inner_.fetch_classifiers(ue, bs);
    t_last_call.end = now_ns();
    return out;
  }
  softcell::PolicyTag request_policy_path(softcell::UeId ue, std::uint32_t bs,
                                          softcell::ClauseId clause) override {
    t_last_call.start = now_ns();
    const auto tag = inner_.request_policy_path(ue, bs, clause);
    t_last_call.end = now_ns();
    return tag;
  }
  std::vector<softcell::PolicyTag> request_policy_paths(
      softcell::UeId ue,
      std::span<const softcell::Controller::PathRequest> requests) override {
    return inner_.request_policy_paths(ue, requests);
  }
  softcell::PolicyTag request_m2m_path(softcell::UeId src_ue,
                                       std::uint32_t src_bs,
                                       std::uint32_t dst_bs,
                                       softcell::ClauseId clause) override {
    return inner_.request_m2m_path(src_ue, src_bs, dst_bs, clause);
  }
  softcell::ShardMetrics& metrics(std::size_t shard) override {
    return inner_.metrics(shard);
  }
  const softcell::ShardMetrics& metrics(std::size_t shard) const override {
    return std::as_const(inner_).metrics(shard);
  }
  softcell::MetricsSnapshot aggregate_metrics() const override {
    return inner_.aggregate_metrics();
  }
  std::uint64_t state_fingerprint() const override {
    return inner_.state_fingerprint();
  }
  std::uint64_t canonical_fingerprint() override {
    return inner_.canonical_fingerprint();
  }

 private:
  softcell::ShardBrain& inner_;
};

// Per-xid span arrays of one rung: the rung's own span and the brain call
// under it.  Written by completions on the workers (one writer per xid),
// read after drain().
struct RungSpans {
  explicit RungSpans(std::uint64_t n)
      : start(n, 0), end(n, 0), brain_start(n, 0), brain_end(n, 0) {}
  std::vector<std::uint64_t> start, end, brain_start, brain_end;

  void record_done(std::uint64_t x) {
    end[x] = now_ns();
    brain_start[x] = t_last_call.start;
    brain_end[x] = t_last_call.end;
  }
};

// Open-loop pacing shared by the dispatch and runtime rungs: submits every
// due request in one go, busy-waiting in between like the wire generator.
// Returns the phase start t0.
template <typename Submit>
std::uint64_t pace_open_loop(const Streams& s, Submit&& submit) {
  const std::uint64_t t0 = now_ns() + 2'000'000;
  std::uint64_t next = 0;
  while (next < s.open.size()) {
    const std::uint64_t now = now_ns();
    while (next < s.open.size() && t0 + s.intended_ns(next) <= now) {
      submit(next);
      ++next;
    }
  }
  return t0;
}

// Closed loop with `window` requests outstanding; returns requests/s, or
// 0 when completions stop arriving for kStallNs (a lost completion).
constexpr std::uint64_t kStallNs = 10'000'000'000;

template <typename Submit>
double closed_loop(const Streams& s, const std::atomic<std::uint64_t>& done,
                   unsigned window, const RungSpans& spans, Submit&& submit) {
  const std::uint64_t first = s.open.size();
  const std::uint64_t base = done.load(std::memory_order_acquire);
  const std::uint64_t t_start = now_ns();
  std::uint64_t next = first;
  std::uint64_t completed = 0;
  std::uint64_t last_progress = t_start;
  while (completed < s.sat.size()) {
    const std::uint64_t c = done.load(std::memory_order_acquire) - base;
    const std::uint64_t now = now_ns();
    if (c != completed) {
      completed = c;
      last_progress = now;
    } else if (now - last_progress > kStallNs) {
      return 0;
    }
    while (next < s.total() && (next - first) - completed < window) {
      submit(next);
      ++next;
    }
    std::this_thread::yield();
  }
  return median(chunk_rates(
      {spans.end.begin() + static_cast<std::ptrdiff_t>(first), spans.end.end()},
      t_start, kSatChunks));
}

struct LatencySplit {
  std::vector<double> primary;  // rung span, us
  std::vector<double> self;     // rung span minus its brain child, us
};

LatencySplit open_loop_latency(const Streams& s, const RungSpans& spans,
                               std::uint64_t t0, bool from_due) {
  LatencySplit out;
  for (std::uint64_t i = s.warmup; i < s.open.size(); ++i) {
    const bool is_path = s.open[i].kind == PacketInMsg::Kind::kPolicyPath;
    if (is_path != s.spec->path_primary) continue;
    const std::uint64_t start = from_due ? t0 + s.intended_ns(i) : spans.start[i];
    const double total = static_cast<double>(spans.end[i] - start);
    const double brain =
        static_cast<double>(spans.brain_end[i] - spans.brain_start[i]);
    out.primary.push_back(total / 1e3);
    out.self.push_back((total - brain) / 1e3);
  }
  return out;
}

void write_spans(std::ofstream& out, const char* layer, const Streams& s,
                 const RungSpans& spans, std::uint64_t t0, bool from_due) {
  for (std::uint64_t x = 0; x < s.total(); x += span_stride(s.total())) {
    const std::uint64_t start =
        from_due && x < s.open.size() ? t0 + s.intended_ns(x) : spans.start[x];
    out << "{\"xid\": " << x << ", \"layer\": \"" << layer
        << "\", \"parent\": null, \"start_ns\": " << start
        << ", \"end_ns\": " << spans.end[x] << "}\n";
    out << "{\"xid\": " << x << ", \"layer\": \"brain\", \"parent\": \""
        << layer << "\", \"start_ns\": " << spans.brain_start[x]
        << ", \"end_ns\": " << spans.brain_end[x] << "}\n";
  }
}

// Registry state the dispatch rung is measured against.
struct CommitMark {
  std::vector<std::uint64_t> wait, apply;
  std::uint64_t batches = 0, ops = 0;

  static CommitMark take() {
    auto& reg = softcell::telemetry::Registry::global();
    return {reg.histogram("commit.wait_ns").fold(),
            reg.histogram("commit.apply_ns").fold(),
            reg.counter("commit.batches").value(),
            reg.counter("commit.ops").value()};
  }
};

std::vector<std::uint64_t> minus(const std::vector<std::uint64_t>& a,
                                 const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool check_fingerprint(const char* rung, std::uint64_t got,
                       const Reference& ref) {
  if (got == ref.fingerprint) return true;
  std::fprintf(stderr, "ladder: %s fingerprint %016llx != reference %016llx\n",
               rung, static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(ref.fingerprint));
  return false;
}

// Every request of the rung must have completed exactly once.
bool check_complete(const char* rung, std::uint64_t done, std::uint64_t want) {
  if (done == want) return true;
  std::fprintf(stderr, "ladder: %s completed %llu of %llu requests\n", rung,
               static_cast<unsigned long long>(done),
               static_cast<unsigned long long>(want));
  return false;
}

softcell::Request to_request(const PacketInMsg& msg) {
  softcell::Request r;
  r.ue = msg.ue;
  r.bs = msg.bs;
  if (msg.kind == PacketInMsg::Kind::kPolicyPath) {
    r.kind = softcell::RequestKind::kPolicyPath;
    r.clause = msg.clause;
  } else {
    r.kind = softcell::RequestKind::kFetchClassifiers;
  }
  return r;
}

// ns per request to encode (or decode) its packet-in and its reply frame,
// checked for round-trip equality.
struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  bool ok = true;
};

CodecCost measure_codec(const Streams& s) {
  namespace ofp = softcell::ofp;
  std::vector<ofp::PacketInReply> replies(s.open.size());
  for (std::size_t i = 0; i < s.open.size(); ++i) {
    replies[i].xid = s.open[i].xid;
    replies[i].kind = s.open[i].kind;
    replies[i].digest = s.open[i].ue.value() * 0x9E3779B97F4A7C15ull;
    replies[i].classifier_count = s.open[i].bs;
  }
  const std::size_t reps = std::max<std::size_t>(1, 2'000'000 / s.open.size());
  std::vector<std::uint8_t> in, out;
  in.reserve(s.open.size() * ofp::kPacketInSize);
  out.reserve(s.open.size() * ofp::kPacketInReplySize);
  CodecCost cost;
  std::uint64_t enc = 0, dec = 0, checksum = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    in.clear();
    out.clear();
    std::uint64_t t = now_ns();
    for (const PacketInMsg& m : s.open) ofp::encode_packet_in_into(in, m);
    for (const ofp::PacketInReply& p : replies)
      ofp::encode_packet_in_reply_into(out, p);
    enc += now_ns() - t;
    t = now_ns();
    for (std::size_t i = 0; i < s.open.size(); ++i) {
      const auto m = ofp::decode_packet_in(
          std::span(in).subspan(i * ofp::kPacketInSize, ofp::kPacketInSize));
      const auto p = ofp::decode_packet_in_reply(std::span(out).subspan(
          i * ofp::kPacketInReplySize, ofp::kPacketInReplySize));
      if (!m || !p || !(*m == s.open[i]) || !(*p == replies[i])) cost.ok = false;
      checksum += p ? p->digest : 0;
    }
    dec += now_ns() - t;
  }
  const double n = static_cast<double>(reps * s.open.size());
  cost.encode_ns = static_cast<double>(enc) / n;
  cost.decode_ns = static_cast<double>(dec) / n;
  if (checksum == 0) cost.ok = false;
  return cost;
}

}  // namespace

bool run_ladder(const Streams& s, const Reference& ref,
                const std::string& span_path) {
  const unsigned workers = server_config().workers;
  const unsigned window = kGenConnections * kSatWindow;
  bool ok = true;
  std::vector<double> brain_setup, provision_setup;
  const auto build = [&] {
    Brain b = build_brain();
    brain_setup.push_back(b.brain_s);
    provision_setup.push_back(b.provision_s);
    return b;
  };
  std::ofstream spans_out(span_path, std::ios::trunc);
  JsonOut j;

  // --- codec -----------------------------------------------------------------
  const CodecCost codec = measure_codec(s);
  ok = ok && codec.ok;
  j.num("ofp.encode_ns", codec.encode_ns);
  j.num("ofp.decode_ns", codec.decode_ns);

  // --- dispatch rung ---------------------------------------------------------
  {
    Brain b = build();
    TimedBrain timed(*b.brain);
    softcell::ControlPlaneRuntime runtime(
        timed, {.workers = workers, .queue_capacity = 8192});
    softcell::net::RuntimeDispatcher dispatcher(runtime, timed);
    RungSpans spans(s.total());
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> failed{0};
    const CommitMark before = CommitMark::take();
    const std::uint64_t rules_before = b.brain->core().engine().total_rules();
    const auto submit = [&](std::uint64_t x) {
      spans.start[x] = now_ns();
      dispatcher.dispatch(s.at(x), [&, x](softcell::ofp::PacketInReply&& r) {
        spans.record_done(x);
        if (!r.ok) failed.fetch_add(1, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_release);
      });
    };
    const std::uint64_t t0 = pace_open_loop(s, submit);
    dispatcher.drain();
    ok = check_complete("dispatch", done.load(), s.open.size()) && ok;
    const double sat = closed_loop(s, done, window, spans, submit);
    dispatcher.drain();
    ok = check_complete("dispatch", done.load(), s.total()) && ok;
    ok = ok && failed.load() == ref.errors;

    const LatencySplit lat = open_loop_latency(s, spans, t0, true);
    const Percentiles p = percentiles(lat.primary);
    std::fprintf(stderr, "ladder: %s\n", describe("dispatch", p, "us").c_str());
    j.num("dispatch.p50_us", p.p50);
    j.num("dispatch.p99_us", p.p99);
    j.num("dispatch.sat_rps", sat);

    const CommitMark after = CommitMark::take();
    const auto wait = minus(after.wait, before.wait);
    const auto apply = minus(after.apply, before.apply);
    j.num("commit.wait_p50_us", histogram_quantile(wait, 0.5) / 1e3);
    j.num("commit.apply_p50_us", histogram_quantile(apply, 0.5) / 1e3);
    j.num("commit.ops_per_batch",
          ratio(static_cast<double>(after.ops - before.ops),
                static_cast<double>(after.batches - before.batches)));

    const softcell::telemetry::Snapshot snap =
        softcell::telemetry::Registry::global().collect();
    const auto agg = [&](const char* name) {
      return static_cast<double>(snap.counter_value(name));
    };
    // Path installs, as the controller counts them (agg.installs counts
    // engine-level installs, more than one per path).
    const double installs = static_cast<double>(b.brain->core().path_installs());
    j.num("core.installs", installs);
    j.num("core.first_install_ratio",
          ratio(installs, static_cast<double>(ref.path_requests)));
    j.num("core.hop_evals_per_install", ratio(agg("agg.hop_evals"), installs));
    j.num("core.memo_hit_ratio",
          ratio(agg("agg.memo_hits"), agg("agg.memo_hits") + agg("agg.memo_misses")));
    j.num("core.rules_per_install",
          ratio(static_cast<double>(b.brain->core().engine().total_rules() -
                                    rules_before),
                installs));
    write_spans(spans_out, "dispatch", s, spans, t0, true);
    // Last: the canonical fingerprint recompacts the core, which would
    // show up in the commit and agg series above.
    ok = check_fingerprint("dispatch", dispatcher.fingerprint(), ref) && ok;
  }

  // --- runtime rung ----------------------------------------------------------
  {
    Brain b = build();
    TimedBrain timed(*b.brain);
    softcell::ControlPlaneRuntime runtime(
        timed, {.workers = workers, .queue_capacity = 8192});
    RungSpans spans(s.total());
    std::vector<double> post_block;
    post_block.reserve(s.open.size());
    std::atomic<std::uint64_t> done{0};
    const auto submit = [&](std::uint64_t x) {
      softcell::Request r = to_request(s.at(x));
      r.done = [&, x](softcell::Response&&) {
        spans.record_done(x);
        done.fetch_add(1, std::memory_order_release);
      };
      const std::uint64_t t = now_ns();
      spans.start[x] = t;
      if (!runtime.post(std::move(r))) ok = false;
      if (x < s.open.size() && x >= s.warmup)
        post_block.push_back(static_cast<double>(now_ns() - t) / 1e3);
    };
    const std::uint64_t t0 = pace_open_loop(s, submit);
    runtime.drain();
    ok = check_complete("runtime", done.load(), s.open.size()) && ok;
    const double sat = closed_loop(s, done, window, spans, submit);
    runtime.drain();
    ok = check_complete("runtime", done.load(), s.total()) && ok;
    ok = check_fingerprint("runtime", b.brain->canonical_fingerprint(), ref) && ok;

    const LatencySplit lat = open_loop_latency(s, spans, t0, false);
    const Percentiles wait = percentiles(lat.self);
    const Percentiles block = percentiles(post_block);
    std::fprintf(stderr, "ladder: %s\n",
                 describe("runtime.wait", wait, "us").c_str());
    std::fprintf(stderr, "ladder: %s\n",
                 describe("runtime.post_block", block, "us").c_str());
    j.num("runtime.post_block_p99_us", block.p99);
    j.num("runtime.wait_p50_us", wait.p50);
    j.num("runtime.wait_p99_us", wait.p99);
    j.num("runtime.coalesced",
          static_cast<double>(runtime.metrics().coalesced_misses));
    j.num("runtime.sat_rps", sat);
    write_spans(spans_out, "runtime", s, spans, t0, false);
  }

  // --- direct rungs ------------------------------------------------------------
  // False when the brain refused the request (it throws, as for the
  // runtime's error replies).
  const auto call = [](ControlBrain& brain, const PacketInMsg& m) {
    try {
      if (m.kind == PacketInMsg::Kind::kPolicyPath) {
        return brain.request_policy_path(m.ue, m.bs, m.clause).valid();
      }
      (void)brain.fetch_classifiers(m.ue, m.bs);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };
  {
    Brain b = build();
    TimedBrain timed(*b.brain);
    std::vector<double> fetch_ns, path_us;
    std::uint64_t bad = 0;
    const std::uint64_t t = now_ns();
    for (std::uint64_t x = 0; x < s.total(); ++x) {
      const PacketInMsg& m = s.at(x);
      if (!call(timed, m)) ++bad;
      const auto ns = static_cast<double>(t_last_call.end - t_last_call.start);
      if (m.kind == PacketInMsg::Kind::kPolicyPath) {
        path_us.push_back(ns / 1e3);
      } else {
        fetch_ns.push_back(ns);
      }
    }
    const double elapsed = static_cast<double>(now_ns() - t) / 1e9;
    ok = check_fingerprint("direct-1", b.brain->canonical_fingerprint(), ref) && ok;
    ok = ok && bad == ref.errors;
    const Percentiles f = percentiles(std::move(fetch_ns));
    const Percentiles p = percentiles(std::move(path_us));
    std::fprintf(stderr, "ladder: %s\n", describe("brain.fetch", f, "ns").c_str());
    std::fprintf(stderr, "ladder: %s\n",
                 describe("brain.path_install", p, "us").c_str());
    j.num("brain.fetch_p50_ns", f.p50);
    j.num("brain.fetch_p99_ns", f.p99);
    j.num("brain.path_install_p50_us", p.p50);
    j.num("brain.path_install_p99_us", p.p99);
    j.num("brain.direct_rps_1", static_cast<double>(s.total()) / elapsed);
  }
  {
    Brain b = build();
    std::atomic<std::uint64_t> bad{0};
    const std::uint64_t t = now_ns();
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (std::uint64_t x = 0; x < s.total(); ++x) {
          const PacketInMsg& m = s.at(x);
          if (b.brain->shard_of(m.ue) % workers != w) continue;
          if (!call(*b.brain, m)) bad.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : threads) th.join();
    const double elapsed = static_cast<double>(now_ns() - t) / 1e9;
    ok = check_fingerprint("direct-2", b.brain->canonical_fingerprint(), ref) && ok;
    ok = ok && bad.load() == ref.errors;
    j.num("brain.direct_rps_2", static_cast<double>(s.total()) / elapsed);
  }

  std::sort(brain_setup.begin(), brain_setup.end());
  std::sort(provision_setup.begin(), provision_setup.end());
  j.num("setup.brain_s", brain_setup[brain_setup.size() / 2]);
  j.num("setup.provision_s", provision_setup[provision_setup.size() / 2]);
  j.boolean("correct", ok);
  std::printf("%s\n", j.text().c_str());
  return ok;
}

}  // namespace perfbench
