#include "runtime/runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/trace.hpp"

namespace softcell {

ControlPlaneRuntime::ControlPlaneRuntime(ControlBrain& controller,
                                         RuntimeOptions options)
    : controller_(controller), load_(std::max(1u, options.workers)) {
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

  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  const unsigned worker = worker_of(shard);
  ++load_[worker].jobs;
  Job job{std::move(request), shard, submitted};
  if (pool_->submit_to(worker, std::move(job))) return true;
  // Refused (shutting down): the job is still ours, and it leaves through
  // the same exit as an executed one.
  --load_[worker].jobs;
  Response refused;
  refused.ok = false;
  refused.error = "control-plane runtime is shut down";
  finish(job, std::move(refused));
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

void ControlPlaneRuntime::finish(Job& job, Response&& response) {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - job.submitted)
                         .count();
  auto& metrics = controller_.metrics(job.shard);
  metrics.record_latency(static_cast<std::uint64_t>(nanos));
  if (!response.ok) metrics.count_error();
  if (job.request.done) job.request.done(std::move(response));
  complete_one();
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
  finish(job, std::move(response));
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
  post(std::move(request));  // a refused post has already answered
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
