// ControlPlaneRuntime: the request pipeline over the shards.
//
// Wiring (one box per concept; see DESIGN.md "Concurrency model"):
//
//   post(Request) --shard_of(ue)--> worker(shard % W) bounded queue
//        |                              |
//        |  duplicate (bs, clause)      v  (batch drain)
//        +--> coalescer (attach to   worker executes on the owning shard,
//             the in-flight install)  records latency, fires completions
//
// Guarantees:
//   * shard affinity -- every posted request for a UE executes on the one
//     worker that owns its shard, so shard state needs no cross-worker
//     ordering.  The one exception is run_inline_if_idle(): a classifier
//     fetch -- a read under the shard's read lock -- may run on the
//     caller's thread, but only while the owning worker has no job queued
//     or running;
//   * per-shard FIFO -- requests posted from one thread execute in posting
//     order (ThreadPool queue guarantee), which makes the final controller
//     state independent of the worker count: the N-worker run is
//     byte-identical to the 1-worker reference (stress-tested).  An inline
//     fetch keeps it: the idle check means every request its caller posted
//     earlier to that worker has completed, so the fetch reads their
//     writes;
//   * duplicate-miss coalescing -- concurrent flow misses for the same
//     (bs, clause) while an install is in flight attach to that install
//     instead of enqueueing their own, from whichever thread they are
//     posted; one path is installed, every caller gets the same tag
//     (Table 2's miss storm collapses to one install);
//   * backpressure -- bounded queues throttle the poster instead of
//     growing the backlog without bound.
//
// Completions run on the worker thread (or, for an inline fetch, on the
// caller's); keep them cheap and never call back into the runtime's
// blocking API from one (call()/drain() from a completion would
// self-deadlock the worker).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/control_brain.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "util/annotations.hpp"

namespace softcell {

enum class RequestKind : std::uint8_t {
  kFetchClassifiers,
  kPolicyPath,
};

struct Response {
  bool ok = true;
  std::string error;                          // set when !ok
  PolicyTag tag{};                            // kPolicyPath
  std::vector<PacketClassifier> classifiers;  // kFetchClassifiers
};

struct Request {
  RequestKind kind = RequestKind::kFetchClassifiers;
  UeId ue{};
  std::uint32_t bs = 0;
  ClauseId clause{};  // kPolicyPath
  // Causal chain id (telemetry/trace.hpp).  0 = inherit the poster's
  // current trace id; workers re-establish it via TraceScope so spans on
  // both sides of the queue stitch into one chain.  Present even in
  // SOFTCELL_TELEMETRY=OFF builds to keep the struct layout stable.
  std::uint64_t trace_id = 0;
  // Optional completion; runs on the worker thread.
  std::function<void(Response&&)> done;
};

struct RuntimeOptions {
  unsigned workers = 2;
  std::size_t queue_capacity = 4096;  // per-worker bounded queue
  // Test hook, forwarded to the thread pool.
  bool start_suspended = false;
};

class ControlPlaneRuntime {
 public:
  // The runtime pipelines over any ControlBrain: the partitioned
  // ShardBrain (shard-local engines + single-writer commit stage) or a
  // decorator around it.
  ControlPlaneRuntime(ControlBrain& controller, RuntimeOptions options = {});
  ~ControlPlaneRuntime();

  ControlPlaneRuntime(const ControlPlaneRuntime&) = delete;
  ControlPlaneRuntime& operator=(const ControlPlaneRuntime&) = delete;

  // Releases a start_suspended pool.
  void start();

  // Asynchronous submission.  Blocks only under backpressure (bounded
  // queues); returns false if the runtime is shutting down.
  bool post(Request request);

  // Run-to-completion for a classifier fetch: when `request` is a fetch
  // and the worker owning its shard has no job queued or running, runs it
  // here, on the caller's thread -- same execution, metrics, trace scope
  // and completion as a posted job -- and returns true.  Otherwise
  // returns false with `request` untouched, for the caller to post().
  bool run_inline_if_idle(Request& request);

  // Blocking conveniences for synchronous callers (the simulation
  // harness).  Must not be called from a worker completion.
  Response call(Request request);
  std::vector<PacketClassifier> fetch_classifiers(UeId ue, std::uint32_t bs);
  PolicyTag request_policy_path(UeId ue, std::uint32_t bs, ClauseId clause);

  // Waits until every posted request has completed.
  void drain();

  [[nodiscard]] unsigned worker_count() const { return pool_->worker_count(); }
  [[nodiscard]] unsigned worker_of(std::size_t shard) const {
    return static_cast<unsigned>(shard % pool_->worker_count());
  }
  [[nodiscard]] ControlBrain& controller() { return controller_; }
  // Aggregated shard metrics (counts, coalescing, latency percentiles).
  [[nodiscard]] MetricsSnapshot metrics() const {
    return controller_.aggregate_metrics();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    Request request;
    std::size_t shard = 0;
    Clock::time_point submitted{};
  };

  struct Waiter {
    std::function<void(Response&&)> done;
    Clock::time_point submitted{};
  };

  // In-flight path installs, per shard: (bs, clause) -> attached waiters.
  // Each shard's map has its own capability; shards never contend.
  struct ShardPending {
    sc::Mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Waiter>> waiting
        SC_GUARDED_BY(mu);
  };
  static std::uint64_t path_key(std::uint32_t bs, ClauseId clause) {
    return (static_cast<std::uint64_t>(clause.value()) << 32) | bs;
  }

  void execute(Job& job);
  void finish(std::size_t shard, Clock::time_point submitted,
              std::function<void(Response&&)>& done, Response&& response);
  // Detaches the waiters coalesced onto the install of `key` and answers
  // each with `response`.
  void answer_waiters(std::size_t shard, std::uint64_t key,
                      const Response& response);
  void complete_one();

  // Jobs queued on or running in one worker: post() adds one, and the
  // worker takes it away once the job's completion has run.  Padded so
  // the workers' counters do not share a cache line.
  struct alignas(64) WorkerLoad {
    std::atomic<std::uint32_t> jobs{0};
  };

  ControlBrain& controller_;
  std::vector<std::unique_ptr<ShardPending>> pending_;
  std::vector<WorkerLoad> load_;
  std::unique_ptr<ThreadPool<Job>> pool_;
  std::atomic<std::uint64_t> in_flight_{0};
  // drain_mu_ exists solely for the drain condvar protocol; the counter it
  // coordinates (in_flight_) is an atomic, so nothing is guarded by it.
  sc::Mutex drain_mu_;
  sc::CondVar drain_cv_;
};

}  // namespace softcell
