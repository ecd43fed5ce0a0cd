// softcell::telemetry -- causal spans and the crash flight recorder.
//
// SC_TRACE_SPAN / SC_TRACE_EVENT write fixed-size 32-byte records into
// per-thread SPSC ring buffers.  Producers are wait-free: an interned-name
// lookup cached in a function-local static, one relaxed armed check, and
// (only when armed) a clock read plus a ring push that drops-and-counts on
// overflow.  A trace id minted at the edge (LocalAgent classifier miss)
// rides along explicitly (Request::trace_id) or via the thread-local
// TraceScope, so one flow request yields one reconstructable causal chain
// across the runtime pipeline, ShardBrain, Algorithm-1 resolution,
// and FlowMod install.
//
// Tracer::drain() folds every ring into the flight recorder -- a bounded
// overwrite-oldest ring of the most recent records -- which the chaos
// harness dumps as Chrome trace JSON next to the SOFTCELL_CHAOS_REPLAY
// line on any invariant failure.
//
// Building with -DSOFTCELL_TELEMETRY=OFF defines SOFTCELL_TELEMETRY_DISABLED
// and compiles the whole layer to nothing: the macros become ((void)0), the
// Tracer/Span/TraceScope stubs below are header-only empty types (no ring
// is ever allocated, no record symbol is emitted), and trace ids are the
// constant 0.  The two variants live in distinct inline namespaces so an
// OFF translation unit can link against an ON-built library (and vice
// versa) without ODR violations; TraceRecord itself is unconditional so
// the exporters keep one signature.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#if !defined(SOFTCELL_TELEMETRY_DISABLED)
#include <atomic>
#include <chrono>

#include "util/annotations.hpp"
#endif

namespace softcell::telemetry {

// One span or instant event.  32 bytes so a 4096-slot ring is 128 KiB per
// thread and a push is a single cache line in the common case.
struct TraceRecord {
  std::uint64_t trace_id = 0;  // causal chain id, 0 = unattributed
  std::uint64_t start_ns = 0;  // steady-clock start (event timestamp)
  std::uint32_t dur_ns = 0;    // span duration; 0 for instant events
  std::uint16_t name = 0;      // interned via Tracer::intern
  std::uint8_t kind = 0;       // 0 = span, 1 = instant event
  std::uint8_t tid = 0;        // small per-thread index
  std::uint64_t arg = 0;       // one site-defined argument
};
static_assert(sizeof(TraceRecord) == 32, "ring slots must stay 32 bytes");

inline constexpr std::uint8_t kRecordSpan = 0;
inline constexpr std::uint8_t kRecordEvent = 1;

#if !defined(SOFTCELL_TELEMETRY_DISABLED)

inline namespace tele_on {

inline constexpr bool kSpansEnabled = true;

// Trace ids: process-unique, dense, and clock-free so chaos replays mint
// the same ids run over run.  Id 0 means "no active chain".
[[nodiscard]] std::uint64_t new_trace_id() noexcept;
[[nodiscard]] std::uint64_t current_trace_id() noexcept;

class Tracer {
 public:
  // 4096 records/thread; overflow drops the newest record and counts it.
  static constexpr std::size_t kRingCapacity = 4096;
  // Flight recorder keeps the most recent records across all threads.
  static constexpr std::size_t kFlightCapacity = 8192;

  [[nodiscard]] static Tracer& global();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void arm() noexcept { armed_.store(true, std::memory_order_relaxed); }
  void disarm() noexcept { armed_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  // Interns a name (typically a string literal) and returns its stable id.
  [[nodiscard]] std::uint16_t intern(const char* name) SC_EXCLUDES(mu_);
  [[nodiscard]] std::vector<std::string> names() const SC_EXCLUDES(mu_);

  // Producer side: pushes into the calling thread's ring (allocated on
  // first use, retired -- folded into the flight recorder -- on thread
  // exit).  Only called with armed() true.
  void record(TraceRecord rec) noexcept;

  // Folds every live ring into the flight recorder (consumer side; safe
  // while producers keep writing).
  void drain() SC_EXCLUDES(mu_);

  // drain() + copy of the flight recorder, oldest record first.
  [[nodiscard]] std::vector<TraceRecord> flight() SC_EXCLUDES(mu_);

  // Clears rings, the flight recorder and the drop counter.  Interned
  // names survive (function-local statics cache them).
  void reset() SC_EXCLUDES(mu_);

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t ring_count() const SC_EXCLUDES(mu_);

 private:
  struct Ring;
  friend struct ThreadRingOwner;

  [[nodiscard]] Ring* ring_for_this_thread() SC_EXCLUDES(mu_);
  void retire(Ring* ring) SC_EXCLUDES(mu_);
  void drain_ring_locked(Ring& ring) SC_REQUIRES(mu_);
  void flight_push_locked(const TraceRecord& rec) SC_REQUIRES(mu_);

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> dropped_{0};

  mutable sc::Mutex mu_;
  std::vector<std::string> names_ SC_GUARDED_BY(mu_);
  std::vector<Ring*> rings_ SC_GUARDED_BY(mu_);
  std::uint8_t next_tid_ SC_GUARDED_BY(mu_) = 0;
  std::vector<TraceRecord> flight_ SC_GUARDED_BY(mu_);
  std::size_t flight_next_ SC_GUARDED_BY(mu_) = 0;
  bool flight_wrapped_ SC_GUARDED_BY(mu_) = false;
};

[[nodiscard]] inline std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sets the calling thread's current trace id for its lifetime; restores
// the previous id on destruction (scopes nest).
class TraceScope {
 public:
  explicit TraceScope(std::uint64_t trace_id) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::uint64_t previous_;
};

// RAII span: samples armed() once at construction; if armed, records a
// complete span (start..destruction) tagged with the thread's current
// trace id.  Sites use the SC_TRACE_SPAN macros, not this type directly.
class Span {
 public:
  explicit Span(std::uint16_t name, std::uint64_t arg = 0) noexcept
      : armed_(Tracer::global().armed()), name_(name), arg_(arg) {
    if (armed_) start_ns_ = trace_now_ns();
  }
  ~Span() {
    if (!armed_) return;
    const std::uint64_t end_ns = trace_now_ns();
    TraceRecord rec;
    rec.trace_id = current_trace_id();
    rec.start_ns = start_ns_;
    rec.dur_ns = static_cast<std::uint32_t>(
        end_ns - start_ns_ > 0xffffffffULL ? 0xffffffffULL
                                           : end_ns - start_ns_);
    rec.name = name_;
    rec.kind = kRecordSpan;
    rec.arg = arg_;
    Tracer::global().record(rec);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_;
  std::uint64_t start_ns_ = 0;
  std::uint16_t name_;
  std::uint64_t arg_;
};

inline void trace_event(std::uint16_t name, std::uint64_t arg) noexcept {
  Tracer& tracer = Tracer::global();
  if (!tracer.armed()) return;
  TraceRecord rec;
  rec.trace_id = current_trace_id();
  rec.start_ns = trace_now_ns();
  rec.name = name;
  rec.kind = kRecordEvent;
  rec.arg = arg;
  tracer.record(rec);
}

}  // namespace tele_on

#define SC_TELEMETRY_CONCAT2(a, b) a##b
#define SC_TELEMETRY_CONCAT(a, b) SC_TELEMETRY_CONCAT2(a, b)

// Interning happens once per site (function-local static); the per-hit
// cost when disarmed is the static's guard check plus one relaxed load.
#define SC_TRACE_SPAN_ARG(name_literal, arg_expr)                           \
  static const std::uint16_t SC_TELEMETRY_CONCAT(sc_trace_name_,            \
                                                 __LINE__) =                \
      ::softcell::telemetry::Tracer::global().intern(name_literal);         \
  ::softcell::telemetry::Span SC_TELEMETRY_CONCAT(sc_trace_span_,           \
                                                  __LINE__)(                \
      SC_TELEMETRY_CONCAT(sc_trace_name_, __LINE__),                        \
      static_cast<std::uint64_t>(arg_expr))

#define SC_TRACE_SPAN(name_literal) SC_TRACE_SPAN_ARG(name_literal, 0)

#define SC_TRACE_EVENT(name_literal, arg_expr)                              \
  do {                                                                      \
    static const std::uint16_t sc_trace_event_name_ =                       \
        ::softcell::telemetry::Tracer::global().intern(name_literal);       \
    ::softcell::telemetry::trace_event(                                     \
        sc_trace_event_name_, static_cast<std::uint64_t>(arg_expr));        \
  } while (false)

#else  // SOFTCELL_TELEMETRY_DISABLED

// Header-only stubs: same surface, no state, no emitted symbols.  Call
// sites stay unconditional; the optimizer erases everything.

inline namespace tele_off {

inline constexpr bool kSpansEnabled = false;

[[nodiscard]] constexpr std::uint64_t new_trace_id() noexcept { return 0; }
[[nodiscard]] constexpr std::uint64_t current_trace_id() noexcept {
  return 0;
}

class Tracer {
 public:
  static constexpr std::size_t kRingCapacity = 0;
  static constexpr std::size_t kFlightCapacity = 0;

  [[nodiscard]] static Tracer& global() {
    static Tracer tracer;
    return tracer;
  }

  void arm() noexcept {}
  void disarm() noexcept {}
  [[nodiscard]] constexpr bool armed() const noexcept { return false; }
  [[nodiscard]] std::uint16_t intern(const char*) noexcept { return 0; }
  [[nodiscard]] std::vector<std::string> names() const { return {}; }
  void record(TraceRecord) noexcept {}
  void drain() noexcept {}
  [[nodiscard]] std::vector<TraceRecord> flight() { return {}; }
  void reset() noexcept {}
  [[nodiscard]] constexpr std::uint64_t dropped() const noexcept {
    return 0;
  }
  [[nodiscard]] constexpr std::size_t ring_count() const noexcept {
    return 0;
  }
};

class TraceScope {
 public:
  explicit TraceScope(std::uint64_t) noexcept {}
};

class Span {
 public:
  explicit Span(std::uint16_t, std::uint64_t = 0) noexcept {}
};

}  // namespace tele_off

#define SC_TRACE_SPAN(name_literal) ((void)0)
#define SC_TRACE_SPAN_ARG(name_literal, arg_expr) ((void)0)
#define SC_TRACE_EVENT(name_literal, arg_expr) ((void)0)

#endif  // SOFTCELL_TELEMETRY_DISABLED

}  // namespace softcell::telemetry
