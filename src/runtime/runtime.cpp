#include "runtime/runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/trace.hpp"

namespace softcell {
namespace {

Response shut_down_response() {
  Response r;
  r.ok = false;
  r.error = "control-plane runtime is shut down";
  return r;
}

}  // namespace

ControlPlaneRuntime::ControlPlaneRuntime(ControlBrain& controller,
                                         RuntimeOptions options)
    : controller_(controller), load_(std::max(1u, options.workers)) {
  pending_.reserve(controller_.shard_count());
  for (std::size_t i = 0; i < controller_.shard_count(); ++i)
    pending_.push_back(std::make_unique<ShardPending>());
  pool_ = std::make_unique<ThreadPool<Job>>(
      ThreadPoolOptions{.workers = options.workers,
                        .queue_capacity = options.queue_capacity,
                        .start_suspended = options.start_suspended},
      [this](unsigned worker, Job& job) {
        execute(job);
        --load_[worker].jobs;
      });
}

ControlPlaneRuntime::~ControlPlaneRuntime() {
  // Graceful stop: every accepted job still runs, so in_flight_ drains to
  // zero and no completion is dropped.
  pool_->stop();
}

void ControlPlaneRuntime::start() { pool_->start(); }

bool ControlPlaneRuntime::post(Request request) {
  const std::size_t shard = controller_.shard_of(request.ue);
  const auto submitted = Clock::now();
  // Inherit the poster's causal chain so the worker-side spans stitch onto
  // the span that crossed the queue (e.g. the LocalAgent classifier miss).
  if (request.trace_id == 0)
    request.trace_id = telemetry::current_trace_id();

  const bool path = request.kind == RequestKind::kPolicyPath;
  const auto key = path_key(request.bs, request.clause);
  if (path) {
    ShardPending& pending = *pending_[shard];
    sc::LockGuard lock(pending.mu);
    if (const auto it = pending.waiting.find(key);
        it != pending.waiting.end()) {
      // An install for this (bs, clause) is already in flight on this
      // shard: attach instead of enqueueing a duplicate.  The worker will
      // answer us with the same tag it answers the primary request.
      it->second.push_back(Waiter{std::move(request.done), submitted});
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      controller_.metrics(shard).count_coalesced();
      return true;
    }
    pending.waiting.emplace(key, std::vector<Waiter>{});
  }

  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  const unsigned worker = worker_of(shard);
  ++load_[worker].jobs;
  if (pool_->submit_to(worker, Job{std::move(request), shard, submitted}))
    return true;
  // Rejected (shutting down): retire the in-flight marker, answering any
  // duplicate that attached to it meanwhile.
  --load_[worker].jobs;
  if (path) answer_waiters(shard, key, shut_down_response());
  complete_one();
  return false;
}

bool ControlPlaneRuntime::run_inline_if_idle(Request& request) {
  if (request.kind != RequestKind::kFetchClassifiers) return false;
  const std::size_t shard = controller_.shard_of(request.ue);
  // Zero means every job this thread posted to that worker has completed
  // -- completion included -- so the fetch cannot overtake them and sees
  // their writes.
  if (load_[worker_of(shard)].jobs.load() != 0) return false;
  if (request.trace_id == 0)
    request.trace_id = telemetry::current_trace_id();
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  controller_.metrics(shard).count_inline_fetch();
  Job job{std::move(request), shard, Clock::now()};
  execute(job);
  return true;
}

void ControlPlaneRuntime::finish(std::size_t shard,
                                 Clock::time_point submitted,
                                 std::function<void(Response&&)>& done,
                                 Response&& response) {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - submitted)
                         .count();
  auto& metrics = controller_.metrics(shard);
  metrics.record_latency(static_cast<std::uint64_t>(nanos));
  if (!response.ok) metrics.count_error();
  if (done) done(std::move(response));
  complete_one();
}

void ControlPlaneRuntime::answer_waiters(std::size_t shard, std::uint64_t key,
                                         const Response& response) {
  std::vector<Waiter> waiters;
  {
    ShardPending& pending = *pending_[shard];
    sc::LockGuard lock(pending.mu);
    const auto it = pending.waiting.find(key);
    if (it == pending.waiting.end()) return;
    waiters = std::move(it->second);
    pending.waiting.erase(it);
  }
  for (auto& waiter : waiters)
    finish(shard, waiter.submitted, waiter.done, Response(response));
}

void ControlPlaneRuntime::complete_one() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    sc::LockGuard lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ControlPlaneRuntime::execute(Job& job) {
  Request& r = job.request;
  telemetry::TraceScope trace_scope(r.trace_id);
  SC_TRACE_SPAN_ARG("runtime.execute", job.shard);
  Response response;
  try {
    switch (r.kind) {
      case RequestKind::kFetchClassifiers:
        response.classifiers = controller_.fetch_classifiers(r.ue, r.bs);
        break;
      case RequestKind::kPolicyPath:
        response.tag = controller_.request_policy_path(r.ue, r.bs, r.clause);
        break;
    }
  } catch (const std::exception& e) {
    response.ok = false;
    response.error = e.what();
  }

  // Answer the waiters that coalesced onto this install with the same
  // outcome.
  if (r.kind == RequestKind::kPolicyPath)
    answer_waiters(job.shard, path_key(r.bs, r.clause), response);
  finish(job.shard, job.submitted, r.done, std::move(response));
}

Response ControlPlaneRuntime::call(Request request) {
  struct SyncState {
    sc::Mutex mu;
    sc::CondVar cv;
    bool ready SC_GUARDED_BY(mu) = false;
    Response response SC_GUARDED_BY(mu);
  };
  auto state = std::make_shared<SyncState>();
  request.done = [state](Response&& response) {
    sc::LockGuard lock(state->mu);
    state->response = std::move(response);
    state->ready = true;
    state->cv.notify_one();
  };
  if (!post(std::move(request))) return shut_down_response();
  sc::UniqueLock lock(state->mu);
  state->cv.wait(lock, [&]() SC_REQUIRES(state->mu) { return state->ready; });
  return std::move(state->response);
}

std::vector<PacketClassifier> ControlPlaneRuntime::fetch_classifiers(
    UeId ue, std::uint32_t bs) {
  Request r;
  r.kind = RequestKind::kFetchClassifiers;
  r.ue = ue;
  r.bs = bs;
  auto response = call(std::move(r));
  if (!response.ok) throw std::runtime_error(response.error);
  return std::move(response.classifiers);
}

PolicyTag ControlPlaneRuntime::request_policy_path(UeId ue, std::uint32_t bs,
                                                   ClauseId clause) {
  Request r;
  r.kind = RequestKind::kPolicyPath;
  r.ue = ue;
  r.bs = bs;
  r.clause = clause;
  auto response = call(std::move(r));
  if (!response.ok) throw std::runtime_error(response.error);
  return response.tag;
}

void ControlPlaneRuntime::drain() {
  sc::UniqueLock lock(drain_mu_);
  drain_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace softcell
