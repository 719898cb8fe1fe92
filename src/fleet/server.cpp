#include "arnet/fleet/server.hpp"

#include <algorithm>

#include "arnet/check/assert.hpp"

namespace arnet::fleet {

EdgeServer::EdgeServer(sim::Simulator& sim, EdgeServerConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      profile_(mar::device_profile(cfg_.profile)),
      free_lanes_(std::max(1, cfg_.batch.executors)) {
  ARNET_CHECK(cfg_.batch.max_batch >= 1, "max_batch must be >= 1");
  trace_ = trace::Emitter(cfg_.telemetry.tracer, cfg_.entity);
}

void EdgeServer::publish_depth() {
  if (!cfg_.telemetry.metrics) return;
  cfg_.telemetry.metrics->gauge("fleet.queue_depth", cfg_.entity)
      .set(static_cast<double>(queue_.size()));
}

double EdgeServer::utilization() const {
  sim::Time now = sim_.now();
  if (now <= 0) return 0.0;
  return sim::to_seconds(busy_) /
         (sim::to_seconds(now) * std::max(1, cfg_.batch.executors));
}

void EdgeServer::submit(ComputeRequest req) {
  ++requests_;
  if (cfg_.telemetry.metrics) {
    cfg_.telemetry.metrics->counter("fleet.requests", cfg_.entity).add();
  }
  trace_.emit(sim_.now(), trace::EventKind::kEnqueue, req.trace, req.uid, req.work);
  queue_.push_back(Queued{std::move(req), sim_.now()});
  publish_depth();
  try_dispatch();
}

void EdgeServer::try_dispatch() {
  const int max_batch = cfg_.batch.enabled ? cfg_.batch.max_batch : 1;
  while (free_lanes_ > 0 && !queue_.empty()) {
    const bool full = static_cast<int>(queue_.size()) >= max_batch;
    const sim::Time head_deadline = queue_.front().enqueued + cfg_.batch.timeout;
    const bool timed_out = !cfg_.batch.enabled || sim_.now() >= head_deadline;
    if (!full && !timed_out) {
      // Wait for the head's formation window; a stale timer from an earlier
      // head may fire early, in which case this re-arms for the new head.
      if (!timeout_timer_.valid()) {
        timeout_timer_ = sim_.at(head_deadline, [this] {
          timeout_timer_ = sim::EventHandle{};
          try_dispatch();
        });
      }
      return;
    }
    std::vector<Queued> batch;
    int take = std::min<int>(max_batch, static_cast<int>(queue_.size()));
    batch.reserve(static_cast<std::size_t>(take));
    for (int i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    publish_depth();
    run_batch(std::move(batch));
  }
}

void EdgeServer::run_batch(std::vector<Queued> batch) {
  ARNET_ASSERT(!batch.empty(), "empty batch dispatched");
  // Sub-linear batch cost: dominant item full price, co-executed items at
  // their marginal fraction, everything scaled to this server's silicon.
  sim::Time w_max = 0, w_sum = 0;
  for (const Queued& q : batch) {
    w_max = std::max(w_max, q.req.work);
    w_sum += q.req.work;
  }
  sim::Time reference =
      cfg_.batch.setup + w_max +
      static_cast<sim::Time>(cfg_.batch.marginal * static_cast<double>(w_sum - w_max));
  sim::Time service = mar::scaled_cost(profile_, reference);

  const std::uint64_t batch_id = next_batch_id_++;
  const auto occupancy = static_cast<std::int64_t>(batch.size());
  ++batches_;
  --free_lanes_;
  executing_ += static_cast<int>(batch.size());
  if (cfg_.telemetry.metrics) {
    cfg_.telemetry.metrics->counter("fleet.batches", cfg_.entity).add();
    cfg_.telemetry.metrics->histogram("fleet.batch_size", cfg_.entity)
        .record(static_cast<double>(occupancy));
  }
  for (const Queued& q : batch) {
    trace_.emit(sim_.now(), trace::EventKind::kDispatch, q.req.trace, q.req.uid, occupancy);
  }
  trace_.emit(sim_.now(), trace::EventKind::kBatchStart, {}, batch_id, occupancy);

  sim_.after(service, [this, batch = std::move(batch), batch_id, occupancy, service]() mutable {
    busy_ += service;
    trace_.emit(sim_.now(), trace::EventKind::kBatchDone, {}, batch_id, occupancy);
    ++free_lanes_;
    executing_ -= static_cast<int>(batch.size());
    for (Queued& q : batch) {
      double sojourn_ms = sim::to_milliseconds(sim_.now() - q.enqueued);
      sojourn_ewma_ms_ = sojourn_ewma_ms_ == 0.0
                             ? sojourn_ms
                             : 0.8 * sojourn_ewma_ms_ + 0.2 * sojourn_ms;
      if (cfg_.telemetry.metrics) {
        cfg_.telemetry.metrics->histogram("fleet.sojourn_ms", cfg_.entity).record(sojourn_ms);
      }
      if (q.req.done) q.req.done();
    }
    try_dispatch();
  });
}

}  // namespace arnet::fleet
