// The wire load generator: one thread, two connections, against a
// softcell-serverd on loopback; kRounds open-loop segments alternate with
// kRounds closed-loop segments.
//
// Open loop (coordinated-omission safe): request i of a segment is due at
// t0 + i / rate, fixed before the segment starts.  Each pass sends every
// request that is due in one batch per connection, and latency runs from
// the due time, so a stall in the server or in the generator shows up in
// every request it delayed.  gen.lag is send time minus due time.
//
// Closed loop (the paper's Cbench protocol): kSatWindow requests
// outstanding per connection; each reply releases the next request.
//
// The server's on-CPU time is read from /proc over the segments only, so
// neither set-up nor the final stats probe (whose canonical fingerprint
// recompacts the core) counts.  cpu_us_per_req is taken over the open-loop
// segments, at the workload's fixed rate.  In closed loop, requests per
// server wake-up follow the relative speed of generator and server, so
// the same code spreads about twice as wide there (cpu_sat_us).
#include <poll.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "net/client.hpp"

namespace perfbench {

using softcell::net::WireConn;
using softcell::ofp::PacketInMsg;

namespace {

// How long a segment waits for its last replies before counting them lost.
constexpr std::uint64_t kReplyDeadlineNs = 10'000'000'000;

// On-CPU nanoseconds summed over every thread of a process
// (/proc/<pid>/task/*/schedstat, first field).
std::uint64_t process_cpu_ns(int pid) {
  std::uint64_t total = 0;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks)) {
    std::ifstream in(task.path() / "schedstat");
    std::uint64_t run = 0;
    if (in >> run) total += run;
  }
  return total;
}

class Generator {
 public:
  Generator(const Streams& s, const Reference& ref)
      : s_(s),
        ref_(ref),
        due_ns_(s.open.size(), 0),
        sent_ns_(s.total(), 0),
        recv_ns_(s.total(), 0),
        answered_(s.total(), 0) {}

  bool connect(std::uint16_t port) {
    for (WireConn& c : conns_) {
      std::string err;
      if (!c.connect(port, &err)) return fail("connect: " + err);
    }
    return true;
  }

  // Alternates kRounds open-loop and closed-loop segments, so each metric
  // samples the whole run rather than one stretch of it.
  // server_pid's on-CPU time is summed per segment kind.
  bool run(int server_pid) {
    const std::uint64_t n_open = s_.open.size();
    const std::uint64_t n_sat = s_.sat.size();
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const std::uint64_t t = process_cpu_ns(server_pid);
      if (!open_loop(n_open * r / kRounds, n_open * (r + 1) / kRounds))
        return false;
      const std::uint64_t u = process_cpu_ns(server_pid);
      open_cpu_ns_ += u - t;
      if (!closed_loop(n_open + n_sat * r / kRounds,
                       n_open + n_sat * (r + 1) / kRounds))
        return false;
      sat_cpu_ns_ += process_cpu_ns(server_pid) - u;
    }
    return true;
  }

  // Closed-loop requests/s: chunks of every segment, median chunk rate.
  [[nodiscard]] std::vector<double> sat_rates() const {
    std::vector<double> rates;
    for (const Segment& seg : segments_) {
      const auto r = chunk_rates(
          {recv_ns_.begin() + static_cast<std::ptrdiff_t>(seg.first),
           recv_ns_.begin() + static_cast<std::ptrdiff_t>(seg.last)},
          seg.start_ns, kSatChunks / kRounds);
      rates.insert(rates.end(), r.begin(), r.end());
    }
    return rates;
  }

  const Streams& s_;
  const Reference& ref_;
  std::vector<std::uint64_t> due_ns_;  // open loop: intended send time
  std::vector<std::uint64_t> sent_ns_;
  std::vector<std::uint64_t> recv_ns_;
  std::vector<std::uint8_t> answered_;
  std::uint64_t received_ = 0;
  std::uint64_t errors_ = 0;       // replies with ok=false
  std::uint64_t duplicates_ = 0;   // xid answered twice
  std::uint64_t unknown_ = 0;      // xid never sent
  std::uint64_t mismatches_ = 0;   // wrong kind, digest or count
  std::uint64_t open_cpu_ns_ = 0;  // server on-CPU time, open-loop segments
  std::uint64_t sat_cpu_ns_ = 0;   // ... closed-loop segments
  std::string error_;

 private:
  struct Segment {
    std::uint64_t start_ns, first, last;
  };

  // Open loop over open[first, last): request i is due at
  // t0 + intended_ns(i - first), fixed before the segment starts.
  bool open_loop(std::uint64_t first, std::uint64_t last) {
    const std::uint64_t t0 = now_ns() + 2'000'000;
    for (std::uint64_t i = first; i < last; ++i)
      due_ns_[i] = t0 + s_.intended_ns(i - first);
    const std::uint64_t target = received_ + (last - first);
    std::uint64_t next = first;
    std::uint64_t last_send = t0;
    while (received_ < target && error_.empty()) {
      const std::uint64_t now = now_ns();
      if (next < last && due_ns_[next] <= now) {
        for (auto& b : batch_) b.clear();
        while (next < last && due_ns_[next] <= now) {
          softcell::ofp::encode_packet_in_into(batch_[next % kGenConnections],
                                               s_.open[next]);
          sent_ns_[next] = now;
          ++next;
        }
        if (!flush()) break;
        last_send = now;
      }
      if (next == last && now_ns() - last_send > kReplyDeadlineNs)
        break;  // unanswered requests are counted by the caller
      if (!poll_replies()) break;
    }
    return error_.empty();
  }

  // Closed loop over xids [first, last): kSatWindow outstanding per
  // connection, each reply releasing the next request.
  bool closed_loop(std::uint64_t first, std::uint64_t last) {
    std::uint64_t next[kGenConnections];
    for (unsigned c = 0; c < kGenConnections; ++c) {
      next[c] = first + ((c + kGenConnections - first % kGenConnections) %
                         kGenConnections);
    }
    const std::uint64_t target = received_ + (last - first);
    segments_.push_back({now_ns(), first, last});
    std::uint64_t last_progress = segments_.back().start_ns;
    std::uint64_t last_received = received_;
    while (received_ < target && error_.empty()) {
      const std::uint64_t now = now_ns();
      for (auto& b : batch_) b.clear();
      for (unsigned c = 0; c < kGenConnections; ++c) {
        while (outstanding_[c] < kSatWindow && next[c] < last) {
          softcell::ofp::encode_packet_in_into(batch_[c], s_.at(next[c]));
          sent_ns_[next[c]] = now;
          ++outstanding_[c];
          next[c] += kGenConnections;
        }
      }
      if (!flush()) break;
      if (received_ != last_received) {
        last_received = received_;
        last_progress = now;
      } else if (now - last_progress > kReplyDeadlineNs) {
        break;
      }
      if (!poll_replies()) break;
    }
    return error_.empty();
  }

  bool fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
    return false;
  }

  bool flush() {
    for (unsigned c = 0; c < kGenConnections; ++c) {
      if (!batch_[c].empty() && !conns_[c].send_bytes(batch_[c]))
        return fail("send failed");
    }
    return true;
  }

  // Drains every reply that has arrived, without blocking: the generator
  // busy-polls so it never sleeps through a due time (a sleeping vCPU of a
  // virtual machine can take milliseconds to wake).
  bool poll_replies() {
    pollfd pfds[kGenConnections];
    for (unsigned c = 0; c < kGenConnections; ++c)
      pfds[c] = {conns_[c].fd(), POLLIN, 0};
    if (::poll(pfds, kGenConnections, 0) <= 0) return true;
    for (unsigned c = 0; c < kGenConnections; ++c) {
      if (pfds[c].revents == 0) continue;
      // The socket is readable, so recv_frame reads it at once (its
      // timeout only matters if the read ends mid-frame; it truncates to
      // whole milliseconds, hence 2).  Frames that read left buffered come
      // out of recv_frame(0ms), which never touches the socket.
      auto frame = conns_[c].recv_frame(std::chrono::milliseconds(2));
      if (!frame && (pfds[c].revents & (POLLHUP | POLLERR)))
        return fail("connection closed by server");
      const std::uint64_t now = now_ns();
      while (frame) {
        on_reply(c, *frame, now);
        frame = conns_[c].recv_frame(std::chrono::milliseconds(0));
      }
    }
    return true;
  }

  void on_reply(unsigned conn, const std::vector<std::uint8_t>& frame,
                std::uint64_t now) {
    const auto reply = softcell::ofp::decode_packet_in_reply(frame);
    if (!reply) {
      fail("undecodable reply frame");
      return;
    }
    const std::uint64_t x = reply->xid;
    if (x >= s_.total() || x % kGenConnections != conn || sent_ns_[x] == 0) {
      ++unknown_;
      return;
    }
    if (answered_[x]) {
      ++duplicates_;
      return;
    }
    answered_[x] = 1;
    recv_ns_[x] = now;
    ++received_;
    if (x >= s_.open.size()) --outstanding_[conn];
    const PacketInMsg& msg = s_.at(x);
    if (reply->kind != msg.kind) {
      ++mismatches_;
    } else if (!reply->ok) {
      ++errors_;
    } else if (msg.kind == PacketInMsg::Kind::kPolicyPath) {
      if (!reply->tag.valid()) ++mismatches_;
    } else if (!ref_.digest.empty() && (reply->digest != ref_.digest[x] ||
                                        reply->classifier_count != ref_.count[x])) {
      ++mismatches_;
    }
  }

  WireConn conns_[kGenConnections];
  std::vector<std::uint8_t> batch_[kGenConnections];
  unsigned outstanding_[kGenConnections] = {};
  std::vector<Segment> segments_;
};

}  // namespace

bool run_wire(std::uint16_t port, int server_pid, const Streams& s,
              const Reference& ref, bool trace, const std::string& span_path) {
  Generator gen(s, ref);
  bool ran = gen.connect(port) && gen.run(server_pid);

  softcell::ofp::ServerStatsMsg stats{};
  if (ran) {
    WireConn probe;
    std::string err;
    const auto reply = probe.connect(port, &err)
                           ? probe.server_stats(0xFFFFFFFF)
                           : std::nullopt;
    if (reply) {
      stats = *reply;
    } else {
      ran = false;
      if (gen.error_.empty()) gen.error_ = "server stats probe failed " + err;
    }
  }

  // Latency from the intended send time, split by kind; open loop only,
  // after the warm-up.
  std::vector<double> primary, secondary, lag;
  const bool path_primary = s.spec->path_primary;
  for (std::uint64_t i = s.warmup; i < s.open.size(); ++i) {
    if (!gen.answered_[i]) continue;
    const std::uint64_t due = gen.due_ns_[i];
    const double us = static_cast<double>(gen.recv_ns_[i] - due) / 1e3;
    const bool is_path = s.open[i].kind == PacketInMsg::Kind::kPolicyPath;
    (is_path == path_primary ? primary : secondary).push_back(us);
    lag.push_back(static_cast<double>(gen.sent_ns_[i] - due) / 1e3);
  }
  const Percentiles lat = percentiles(primary);
  const Percentiles other = percentiles(secondary);
  const Percentiles lag_p = percentiles(lag);
  const double sat_rps = median(gen.sat_rates());

  std::uint64_t answered = 0;
  for (const std::uint8_t a : gen.answered_) answered += a;
  const std::uint64_t unanswered = s.total() - answered;
  const bool fingerprint_ok = ran && stats.fingerprint == ref.fingerprint;
  const bool exactly_once = gen.duplicates_ == 0 && gen.unknown_ == 0 &&
                            unanswered == 0 && stats.packet_ins == s.total() &&
                            stats.replies == s.total();
  const bool correct = ran && fingerprint_ok && exactly_once &&
                       gen.mismatches_ == 0;

  std::fprintf(stderr, "wire: %s\n",
               describe(path_primary ? "path" : "fetch", lat, "us").c_str());
  if (other.n > 0)
    std::fprintf(stderr, "wire: %s\n",
                 describe(path_primary ? "fetch" : "path", other, "us").c_str());
  std::fprintf(stderr, "wire: %s\n", describe("gen.lag", lag_p, "us").c_str());
  std::fprintf(stderr,
               "wire: sat_rps=%.1f over %zu requests; server packet_ins=%llu "
               "replies=%llu drops=%llu; fingerprint %s; duplicates=%llu "
               "unknown=%llu unanswered=%llu mismatches=%llu errors=%llu%s%s\n",
               sat_rps, s.sat.size(),
               static_cast<unsigned long long>(stats.packet_ins),
               static_cast<unsigned long long>(stats.replies),
               static_cast<unsigned long long>(stats.drops),
               fingerprint_ok ? "matches reference" : "MISMATCH",
               static_cast<unsigned long long>(gen.duplicates_),
               static_cast<unsigned long long>(gen.unknown_),
               static_cast<unsigned long long>(unanswered),
               static_cast<unsigned long long>(gen.mismatches_),
               static_cast<unsigned long long>(gen.errors_),
               gen.error_.empty() ? "" : "; error: ", gen.error_.c_str());

  if (trace) {
    // One root span per request (due time -> reply on the socket) with the
    // send time as an event, for a sample of xids.
    std::ofstream out(span_path, std::ios::trunc);
    for (std::uint64_t x = 0; x < s.total(); x += span_stride(s.total())) {
      if (!gen.answered_[x]) continue;
      const std::uint64_t start =
          x < s.open.size() ? gen.due_ns_[x] : gen.sent_ns_[x];
      out << "{\"xid\": " << x << ", \"layer\": \"wire\", \"parent\": null"
          << ", \"start_ns\": " << start << ", \"send_ns\": " << gen.sent_ns_[x]
          << ", \"end_ns\": " << gen.recv_ns_[x] << "}\n";
    }
  }

  JsonOut j;
  j.boolean("correct", correct);
  j.num("attempted", static_cast<double>(s.total()));
  j.num("failed", static_cast<double>(gen.errors_ + unanswered + stats.drops));
  j.num("p50_us", median(window_quantiles(primary, kWindows, 0.5)));
  j.num("p90_us", lat.p90);
  j.num("p99_us", lat.p99);
  j.num("samples", static_cast<double>(lat.n));
  j.boolean("p99_ok", lat.p99_ok);
  j.num("other_p50_us", other.p50);
  j.num("other_p99_us", other.p99);
  j.num("other_samples", static_cast<double>(other.n));
  j.num("sat_rps", sat_rps);
  j.num("lag_p99_us", lag_p.p99);
  j.num("drops", static_cast<double>(stats.drops));
  j.num("cpu_us_per_req", static_cast<double>(gen.open_cpu_ns_) / 1e3 /
                              static_cast<double>(s.open.size()));
  j.num("cpu_sat_us", static_cast<double>(gen.sat_cpu_ns_) / 1e3 /
                          static_cast<double>(s.sat.size()));
  std::printf("%s\n", j.text().c_str());
  return correct;
}

}  // namespace perfbench
