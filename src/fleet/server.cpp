#include "arnet/fleet/server.hpp"

#include <algorithm>

#include "arnet/check/assert.hpp"

namespace arnet::fleet {

EdgeServer::EdgeServer(sim::Simulator& sim, EdgeServerConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      profile_(mar::device_profile(kServerClass)),
      lanes_(static_cast<std::size_t>(std::max(1, cfg_.batch.executors))),
      batch_timer_(sim, [this] { try_dispatch(); }) {
  trace_ = trace::Emitter(cfg_.telemetry.tracer, cfg_.entity);
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) free_lanes_.push_back(i);
}

EdgeServer::KeptBlocks::~KeptBlocks() {
  for (std::size_t i = 0; i < count_; ++i) {
    std::pmr::new_delete_resource()->deallocate(kept_[i].p, kept_[i].bytes, kept_[i].align);
  }
}

void* EdgeServer::KeptBlocks::do_allocate(std::size_t bytes, std::size_t align) {
  for (std::size_t i = count_; i-- > 0;) {
    if (kept_[i].bytes == bytes && kept_[i].align == align) {
      void* p = kept_[i].p;
      kept_[i] = kept_[--count_];
      return p;
    }
  }
  return std::pmr::new_delete_resource()->allocate(bytes, align);
}

void EdgeServer::KeptBlocks::do_deallocate(void* p, std::size_t bytes, std::size_t align) {
  if (count_ < kKept) {
    kept_[count_++] = {p, bytes, align};
  } else {
    std::pmr::new_delete_resource()->deallocate(p, bytes, align);
  }
}

void EdgeServer::publish_depth() {
  if (!cfg_.telemetry.metrics) return;
  instruments_.depth.get(*cfg_.telemetry.metrics, "fleet.queue_depth", cfg_.entity)
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
    instruments_.requests.get(*cfg_.telemetry.metrics, "fleet.requests", cfg_.entity).add();
  }
  trace_.emit(sim_.now(), trace::EventKind::kEnqueue, req.trace, req.uid, req.work);
  queue_.push_back(Queued{std::move(req), sim_.now()});
  publish_depth();
  try_dispatch();
}

void EdgeServer::try_dispatch() {
  const int max_batch = cfg_.batch.enabled ? kMaxBatch : 1;
  while (!free_lanes_.empty() && !queue_.empty()) {
    const bool full = static_cast<int>(queue_.size()) >= max_batch;
    const sim::Time head_deadline = queue_.front().enqueued + kBatchTimeout;
    const bool timed_out = !cfg_.batch.enabled || sim_.now() >= head_deadline;
    if (!full && !timed_out) {
      // Wait for the head's formation window; a stale timer from an earlier
      // head may fire early, in which case this re-arms for the new head.
      if (!batch_timer_.armed()) batch_timer_.arm(head_deadline - sim_.now());
      return;
    }
    const std::uint32_t lane = free_lanes_.back();
    free_lanes_.pop_back();
    std::vector<Queued>& batch = lanes_[lane].batch;
    const int take = std::min<int>(max_batch, static_cast<int>(queue_.size()));
    for (int i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    publish_depth();
    run_batch(lane);
  }
}

void EdgeServer::run_batch(std::uint32_t lane) {
  Lane& l = lanes_[lane];
  ARNET_ASSERT(!l.batch.empty(), "empty batch dispatched");
  // Sub-linear batch cost: dominant item full price, co-executed items at
  // their marginal fraction, everything scaled to this server's silicon.
  sim::Time w_max = 0, w_sum = 0;
  for (const Queued& q : l.batch) {
    w_max = std::max(w_max, q.req.work);
    w_sum += q.req.work;
  }
  sim::Time reference =
      cfg_.batch.setup + w_max +
      static_cast<sim::Time>(cfg_.batch.marginal * static_cast<double>(w_sum - w_max));
  l.service = mar::scaled_cost(profile_, reference);
  l.batch_id = next_batch_id_++;

  const auto occupancy = static_cast<std::int64_t>(l.batch.size());
  ++batches_;
  executing_ += static_cast<int>(occupancy);
  if (obs::MetricsRegistry* m = cfg_.telemetry.metrics) {
    instruments_.batches.get(*m, "fleet.batches", cfg_.entity).add();
    instruments_.batch_size.get(*m, "fleet.batch_size", cfg_.entity)
        .record(static_cast<double>(occupancy));
  }
  for (const Queued& q : l.batch) {
    trace_.emit(sim_.now(), trace::EventKind::kDispatch, q.req.trace, q.req.uid, occupancy);
  }
  trace_.emit(sim_.now(), trace::EventKind::kBatchStart, {}, l.batch_id, occupancy);
  sim_.after(l.service, [this, lane] { complete_batch(lane); });
}

void EdgeServer::complete_batch(std::uint32_t lane) {
  Lane& l = lanes_[lane];
  const auto occupancy = static_cast<std::int64_t>(l.batch.size());
  busy_ += l.service;
  trace_.emit(sim_.now(), trace::EventKind::kBatchDone, {}, l.batch_id, occupancy);
  ARNET_ASSERT(draining_.empty(), "batch completions nested");
  draining_.swap(l.batch);
  free_lanes_.push_back(lane);
  executing_ -= static_cast<int>(occupancy);
  for (Queued& q : draining_) {
    double sojourn_ms = sim::to_milliseconds(sim_.now() - q.enqueued);
    sojourn_ewma_ms_ = sojourn_ewma_ms_ == 0.0
                           ? sojourn_ms
                           : 0.8 * sojourn_ewma_ms_ + 0.2 * sojourn_ms;
    if (cfg_.telemetry.metrics) {
      instruments_.sojourn.get(*cfg_.telemetry.metrics, "fleet.sojourn_ms", cfg_.entity)
          .record(sojourn_ms);
    }
    if (q.req.done) q.req.done();
  }
  draining_.clear();
  try_dispatch();
}

}  // namespace arnet::fleet
