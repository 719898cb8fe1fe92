#include "arnet/fleet/fleet.hpp"

#include <algorithm>
#include <span>

#include "arnet/check/assert.hpp"

namespace arnet::fleet {

Fleet::Fleet(sim::Simulator& sim, FleetConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      population_(sim, cfg_.population, cfg_.seed),
      admission_(cfg_.admission),
      balancer_(cfg_.policy),
      autoscaler_(cfg_.autoscaler),
      metrics_(cfg_.telemetry.metrics) {
  ARNET_CHECK(cfg_.servers >= 1, "fleet needs at least one server");
  cfg_.telemetry.wire();
  trace_ = trace::Emitter(cfg_.telemetry.tracer, cfg_.entity);
  for (std::size_t i = 0; i < cfg_.servers; ++i) add_server();
  active_ = cfg_.servers;
  population_.set_session_callback([this](const SessionSpec& s) { on_arrival(s); });
}

void Fleet::add_server() {
  EdgeServerConfig scfg;
  scfg.batch = cfg_.batch;
  scfg.telemetry = {.metrics = cfg_.telemetry.metrics, .tracer = cfg_.telemetry.tracer};
  scfg.entity = cfg_.entity + "/server:" + std::to_string(servers_.size());
  servers_.push_back(std::make_unique<EdgeServer>(sim_, scfg));
  busy_snapshot_.push_back(0);
}

void Fleet::publish_gauges() {
  if (!metrics_) return;
  instruments_.active_sessions.get(*metrics_, "fleet.active_sessions", cfg_.entity)
      .set(static_cast<double>(sessions_.size()));
  instruments_.active_servers.get(*metrics_, "fleet.active_servers", cfg_.entity)
      .set(static_cast<double>(active_));
}

void Fleet::start() {
  running_ = true;
  population_.start();
  if (cfg_.autoscaler.enabled) {
    sim_.after(kAutoscaleTick, [this] { autoscale_tick(); });
  }
}

void Fleet::stop() {
  running_ = false;
  population_.stop();
}

void Fleet::on_arrival(const SessionSpec& spec) {
  if (!running_) return;
  ++stats_.arrivals;
  if (metrics_) instruments_.arrivals.get(*metrics_, "fleet.arrivals", cfg_.entity).add();
  const AdmissionDecision d = admission_.decide(sim_.now(), spec.id);
  trace_.emit(sim_.now(), trace::EventKind::kAdmit, {}, spec.id, 0, to_string(d));
  // Admission anomalies predate any frame trace, so the sampler keeps them
  // as notes rather than span sets.
  if (cfg_.telemetry.sampler && d != AdmissionDecision::kAdmit) {
    cfg_.telemetry.sampler->note(spec.id, to_string(d), sim_.now());
  }
  if (metrics_) {
    instruments_.decisions[static_cast<std::size_t>(d)]
        .get(*metrics_,
             d == AdmissionDecision::kReject
                 ? "fleet.rejected"
                 : (d == AdmissionDecision::kDowngrade ? "fleet.downgraded" : "fleet.admitted"),
             cfg_.entity)
        .add();
  }
  if (d == AdmissionDecision::kReject) {
    ++stats_.rejected;
    return;
  }
  Session s;
  s.spec = spec;
  s.degraded = d == AdmissionDecision::kDowngrade;
  s.ends = spec.arrival + spec.lifetime;
  s.fps = kApp.fps * (s.degraded ? kDowngradeFpsFactor : 1.0);
  if (s.degraded) {
    ++stats_.downgraded;
  } else {
    ++stats_.admitted;
  }
  const std::uint64_t sid = spec.id;
  sessions_.emplace(sid, std::move(s));
  publish_gauges();
  sim_.at(sessions_.at(sid).ends, [this, sid] { retire(sid); });
  capture_frame(sid);
}

void Fleet::retire(std::uint64_t sid) {
  sessions_.erase(sid);
  publish_gauges();
}

void Fleet::capture_frame(std::uint64_t sid) {
  if (!running_) return;
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  const std::uint64_t frame_uid = next_frame_uid_++;
  ++stats_.frames;
  if (metrics_) instruments_.frames.get(*metrics_, "fleet.frames", cfg_.entity).add();
  trace::TraceContext ctx;
  if (cfg_.telemetry.tracer) {
    ctx = cfg_.telemetry.tracer->new_trace();
    trace_.emit(sim_.now(), trace::EventKind::kFrameCapture, ctx, frame_uid,
                kApp.request_bytes);
  }

  // Anycast decision at the client: the balancer picks the serving edge
  // before the uplink leaves the device, so the uplink delay is toward the
  // chosen site.
  const std::size_t pick = balancer_.pick(std::span(servers_).first(active_));
  const sim::Time rtt = site_rtt(cfg_, s.spec.pos, pick);
  const FrameCost cost = frame_cost(s.spec.device);
  const sim::Time uplink = rtt / 2 + cost.request_tx;

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  in_flight_[slot] = InFlight{.uid = frame_uid,
                              .session = s.spec.id,
                              .frame = s.next_frame,
                              .device = s.spec.device,
                              .t0 = sim_.now(),
                              .downlink = rtt / 2 + cost.result_tx,
                              .ctx = ctx,
                              .server = servers_[pick].get()};
  sim_.after(cost.device_stage + uplink, [this, slot] { submit_frame(slot); });

  ++s.next_frame;
  sim_.after(sim::from_seconds(1.0 / s.fps), [this, sid] { capture_frame(sid); });
}

void Fleet::submit_frame(std::uint32_t slot) {
  const InFlight& f = in_flight_[slot];
  ComputeRequest req;
  req.uid = f.uid;
  req.session = f.session;
  req.frame = f.frame;
  req.work = kApp.server_cost;
  req.trace = f.ctx;
  req.done = [this, slot] {
    sim_.after(in_flight_[slot].downlink, [this, slot] { finish_frame(slot); });
  };
  f.server->submit(std::move(req));
}

void Fleet::finish_frame(std::uint32_t slot) {
  const InFlight& f = in_flight_[slot];
  const sim::Time latency = sim_.now() - f.t0;
  const double ms = sim::to_milliseconds(latency);
  const bool missed = stats_.complete(latency, kApp.deadline);
  admission_.observe_latency_ms(ms);
  // Keep the sampler's outlier rule tracking the live tail estimate before
  // it sees this frame's completion event (the admission projection is
  // always maintained, even with admission disabled). Refreshed once per 32
  // frames. The cached projection would be cheap enough to refresh on every
  // frame, but the cadence is part of the output: the threshold in force when
  // a frame completes decides whether the sampler retains it, so changing it
  // changes the retained traces.
  if (cfg_.telemetry.sampler && (stats_.results & 31) == 1) {
    cfg_.telemetry.sampler->set_outlier_threshold_ms(admission_.projected_p99_ms());
  }
  trace_.verdict(sim_.now(), f.ctx, f.uid, latency, missed);
  if (cfg_.telemetry.slo) cfg_.telemetry.slo->observe(sim_.now(), ms);
  if (metrics_) {
    // Retention was just decided (the sampler saw the completion event via
    // the tracer sink): retained frames become their bucket's exemplar.
    const std::uint32_t exemplar = (cfg_.telemetry.sampler && f.ctx.active() &&
                                    cfg_.telemetry.sampler->retained(f.ctx.trace_id))
                                       ? f.ctx.trace_id
                                       : 0;
    instruments_.class_m2p[static_cast<std::size_t>(f.device)]
        .get(*metrics_,
             [&] {
               return obs::MetricId{"fleet.m2p_ms",
                                    cfg_.entity + "/class:" + mar::device_profile(f.device).name};
             })
        .record(ms, exemplar);
    instruments_.m2p.get(*metrics_, "fleet.m2p_ms", cfg_.entity).record(ms, exemplar);
    (missed ? instruments_.miss.get(*metrics_, "fleet.deadline_miss", cfg_.entity)
            : instruments_.hit.get(*metrics_, "fleet.deadline_hit", cfg_.entity))
        .add();
  }
  free_slots_.push_back(slot);
}

void Fleet::autoscale_tick() {
  if (!running_) return;
  // Windowed mean lane utilization across the active set.
  sim::Time busy_delta = 0;
  int lanes = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const sim::Time busy = servers_[i]->busy_time();
    if (i < active_) {
      busy_delta += busy - busy_snapshot_[i];
      lanes += std::max(1, servers_[i]->config().batch.executors);
    }
    busy_snapshot_[i] = busy;
  }
  const double window_s = sim::to_seconds(kAutoscaleTick) * lanes;
  const double util = window_s > 0 ? sim::to_seconds(busy_delta) / window_s : 0.0;

  const ScaleAction action = autoscaler_.evaluate(sim_.now(), util, active_);
  if (action == ScaleAction::kOut) {
    if (active_ < servers_.size()) {
      ++active_;  // reactivate a drained server
    } else {
      add_server();
      ++active_;
    }
    if (metrics_) instruments_.scale_out.get(*metrics_, "fleet.scale_out", cfg_.entity).add();
    autoscaler_.applied(sim_.now(), action, util, active_);
    publish_gauges();
  } else if (action == ScaleAction::kIn) {
    // Deactivate the highest-index server: it stops receiving dispatches
    // and drains whatever it still holds.
    --active_;
    if (metrics_) instruments_.scale_in.get(*metrics_, "fleet.scale_in", cfg_.entity).add();
    autoscaler_.applied(sim_.now(), action, util, active_);
    publish_gauges();
  }
  if (metrics_) {
    instruments_.utilization.get(*metrics_, "fleet.utilization", cfg_.entity).set(util);
  }
  sim_.after(kAutoscaleTick, [this] { autoscale_tick(); });
}

}  // namespace arnet::fleet
