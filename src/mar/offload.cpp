#include "arnet/mar/offload.hpp"

#include "arnet/check/assert.hpp"

namespace arnet::mar {

using net::AppData;
using net::Priority;
using net::TrafficClass;
using transport::ArtpMessageSpec;

namespace {

/// Metrics and trace entity of every session; its ARTP endpoints are "mar/...".
const std::string kEntity = "mar";
/// kAdaptive: how often the runtime re-evaluates its strategy choice.
constexpr sim::Time kAdaptInterval = sim::milliseconds(500);
/// Adaptive Glimpse offloads a fresh recognition frame below this quality.
constexpr double kGlimpseQualityThreshold = 0.6;
/// Every session offloads to a Table I cloud surrogate.
constexpr DeviceClass kSurrogate = DeviceClass::kCloud;

}  // namespace

const char* to_string(OffloadStrategy s) {
  switch (s) {
    case OffloadStrategy::kLocalOnly:
      return "LocalOnly";
    case OffloadStrategy::kFullOffload:
      return "FullOffload";
    case OffloadStrategy::kCloudRidAR:
      return "CloudRidAR";
    case OffloadStrategy::kGlimpse:
      return "Glimpse";
    case OffloadStrategy::kAdaptive:
      return "Adaptive";
  }
  return "?";
}

OffloadSession::OffloadSession(net::Network& net, net::NodeId client, net::NodeId server,
                               OffloadConfig cfg,
                               std::vector<transport::ArtpPathConfig> paths)
    : net_(net),
      client_(client),
      server_(server),
      cfg_(cfg),
      device_(device_profile(cfg.device)),
      surrogate_(device_profile(kSurrogate)),
      active_strategy_(cfg.strategy == OffloadStrategy::kAdaptive
                           ? OffloadStrategy::kCloudRidAR
                           : cfg.strategy),
      track_rng_(net.fork_rng("glimpse-tracking")) {
  // Both reach `frame_id % n`: the fixed Glimpse trigger and the GOP phase.
  ARNET_CHECK(cfg_.glimpse_offload_interval >= 1, "glimpse_offload_interval must be >= 1, got ",
              cfg_.glimpse_offload_interval);
  ARNET_CHECK(cfg_.video.gop >= 1, "video.gop must be >= 1, got ", cfg_.video.gop);
  cfg_.artp.header_bytes += crypto_costs(cfg_.crypto).per_packet_overhead_bytes;
  transport::ArtpReceiver::Config server_rx_cfg, client_rx_cfg;
  transport::ArtpSenderConfig reply_cfg;  // results: small, default transport
  trace_ = trace::Emitter(cfg_.tracer, kEntity);
  if (cfg_.tracer && cfg_.trace_transport) {
    auto observe = [this](auto& endpoint, const char* role) {
      endpoint.telemetry.tracer = cfg_.tracer;
      endpoint.entity = kEntity + role;
    };
    observe(cfg_.artp, "/artp-up");
    observe(server_rx_cfg, "/artp-up-rx");
    observe(reply_cfg, "/artp-down");
    observe(client_rx_cfg, "/artp-down-rx");
  }
  // Sessions may share nodes (many users offloading to one edge server), so
  // each instance claims its own block of ports and flow ids — from the
  // network, not a process-global counter, which would make the second
  // same-seed run of a scenario bind different ports and break
  // trace-fingerprint determinism (caught by check::DeterminismHarness).
  const net::Port base = net.allocate_port_block(4);
  port_base_ = base;
  const net::Port client_data = base, server_data = static_cast<net::Port>(base + 1),
                  server_result = static_cast<net::Port>(base + 2),
                  client_result = static_cast<net::Port>(base + 3);
  client_tx_ = std::make_unique<transport::ArtpSender>(net_, client_, client_data, server_,
                                                       server_data, /*flow=*/base, cfg_.artp,
                                                       std::move(paths));
  server_rx_ = std::make_unique<transport::ArtpReceiver>(net_, server_, server_data,
                                                         server_rx_cfg);
  server_rx_->set_message_callback(
      [this](const transport::ArtpDelivery& d) { on_server_message(d); });

  server_tx_ = std::make_unique<transport::ArtpSender>(net_, server_, server_result,
                                                       client_, client_result,
                                                       /*flow=*/static_cast<net::FlowId>(base) + 1,
                                                       reply_cfg);
  client_rx_ = std::make_unique<transport::ArtpReceiver>(net_, client_, client_result,
                                                         client_rx_cfg);
  client_rx_->set_message_callback(
      [this](const transport::ArtpDelivery& d) { on_client_result(d); });
}

OffloadSession::~OffloadSession() {
  // Tear the ARTP endpoints down first (their destructors unbind the ports),
  // then hand the block back so session churn — thousands of users arriving
  // and leaving on one long-lived network — recycles the same few ports
  // instead of marching through the 16-bit space.
  client_rx_.reset();
  server_tx_.reset();
  server_rx_.reset();
  client_tx_.reset();
  net_.release_port_block(port_base_, 4);
}

void OffloadSession::start() {
  running_ = true;
  on_frame();
  if (cfg_.send_sensor_stream) on_sensor_batch();
  on_metadata_beat();
  if (cfg_.strategy == OffloadStrategy::kAdaptive) {
    net_.sim().after(kAdaptInterval, [this] { adapt_tick(); });
  }
}

FrameStages OffloadSession::stages(OffloadStrategy s, std::uint32_t frame_id) const {
  using namespace cloudridar;
  switch (s) {
    case OffloadStrategy::kLocalOnly:
      return {scaled_cost(device_, kExtract) + scaled_cost(device_, kRecognize), 0, 0, 0};
    case OffloadStrategy::kFullOffload:
      return {scaled_cost(device_, kDecodeFrame), cfg_.video.frame_bytes(frame_id),
              scaled_cost(surrogate_, kDecodeFrame) + scaled_cost(surrogate_, kExtract) +
                  scaled_cost(surrogate_, kRecognize),
              kResultBytes};
    case OffloadStrategy::kCloudRidAR:
    case OffloadStrategy::kGlimpse:
    case OffloadStrategy::kAdaptive:
      break;
  }
  return {scaled_cost(device_, kExtract), kFeatureBytes, scaled_cost(surrogate_, kRecognize),
          kResultBytes};
}

void OffloadSession::adapt_tick() {
  if (!running_) return;
  // Live link estimate from the transport's QoS state.
  double rate = client_tx_->allowed_rate_bps();
  sim::Time owd = 0;
  for (std::size_t i = 0; i < client_tx_->path_count(); ++i) {
    if (client_tx_->path_up(i) && client_tx_->path_owd(i) > 0) {
      owd = owd == 0 ? client_tx_->path_owd(i) : std::min(owd, client_tx_->path_owd(i));
    }
  }
  if (owd == 0) owd = sim::milliseconds(20);  // no feedback yet: assume edge

  // Preference order at equal feasibility: per-frame offloaded recognition
  // (CloudRidAR, then FullOffload), then local, then Glimpse which hides
  // latency behind tracking when nothing else fits the budget.
  sim::Time budget = cfg_.deadline - cfg_.deadline / 5;  // 20% headroom
  OffloadStrategy pick = OffloadStrategy::kGlimpse;
  for (auto cand : {OffloadStrategy::kCloudRidAR, OffloadStrategy::kFullOffload,
                    OffloadStrategy::kLocalOnly}) {
    // Frame 0 is a reference frame: FullOffload is sized by its largest frame.
    FrameStages st = stages(cand, 0);
    st.result_bytes = 0;  // the pick leaves the result's download out
    const sim::Time expected =
        cand == OffloadStrategy::kLocalOnly ? st.device : offload_latency(st, {rate, owd});
    if (expected < budget) {
      pick = cand;
      break;
    }
  }
  if (pick != active_strategy_) {
    ++strategy_switches_;
    active_strategy_ = pick;
  }
  net_.sim().after(kAdaptInterval, [this] { adapt_tick(); });
}

void OffloadSession::stop() {
  running_ = false;
  ARNET_CHECK(stats_.consistent(), "offload session: ", stats_.frames, " frames, ",
              stats_.results, " results, ", stats_.deadline_misses, " misses");
}

void OffloadSession::on_sensor_batch() {
  if (!running_) return;
  ArtpMessageSpec m;
  m.bytes = cfg_.sensors.batch_bytes;
  m.tclass = TrafficClass::kFullBestEffort;
  m.priority = Priority::kMediumNoDrop;
  m.app = AppData::kSensorData;
  client_tx_->send_message(m);
  net_.sim().after(cfg_.sensors.batch_interval(), [this] { on_sensor_batch(); });
}

void OffloadSession::on_metadata_beat() {
  if (!running_) return;
  ArtpMessageSpec m;
  m.bytes = cfg_.metadata.bytes;
  m.tclass = TrafficClass::kCriticalData;
  m.priority = Priority::kHighest;
  m.app = AppData::kConnectionMetadata;
  client_tx_->send_message(m);
  net_.sim().after(cfg_.metadata.interval(), [this] { on_metadata_beat(); });
}

void OffloadSession::on_frame() {
  if (!running_) return;
  std::uint32_t frame_id = next_frame_++;
  sim::Time capture = net_.sim().now();
  capture_time_[frame_id] = capture;
  ++stats_.frames;
  if (cfg_.metrics) instruments_.frames.get(*cfg_.metrics, "mar.frames", kEntity).add();
  if (cfg_.tracer) {
    frame_trace_[frame_id] = cfg_.tracer->new_trace();
    trace_.emit(net_.sim().now(), trace::EventKind::kFrameCapture, frame_trace_[frame_id],
                frame_id, 0);
  }

  const OffloadStrategy strategy = active_strategy_;
  bool tracked = false;  // a Glimpse frame between two offloaded triggers
  if (strategy == OffloadStrategy::kGlimpse && cfg_.glimpse_adaptive) {
    // Tracking confidence decays with scene/camera motion; a fresh
    // recognition frame is offloaded when it falls below threshold.
    double motion = std::max(
        0.0, track_rng_.normal(cfg_.glimpse_motion_level, cfg_.glimpse_motion_level / 2));
    tracking_quality_ *= 1.0 - std::min(motion, 0.9);
    tracked = tracking_quality_ >= kGlimpseQualityThreshold;
    if (!tracked) tracking_quality_ = 1.0;  // refreshed by the new result
  } else if (strategy == OffloadStrategy::kGlimpse) {
    tracked = frame_id % static_cast<std::uint32_t>(cfg_.glimpse_offload_interval) != 0;
  }

  if (strategy == OffloadStrategy::kLocalOnly || tracked) {
    // Tracked Glimpse frames update the augmentation from the last server
    // result within the tracking budget.
    sim::Time compute =
        tracked ? scaled_cost(device_, cloudridar::kTrack) : stages(strategy, frame_id).device;
    stats_.energy_j += device_.active_power_w * sim::to_seconds(compute);
    net_.sim().after(compute, [this, frame_id, capture] {
      finish_frame(frame_id, net_.sim().now() - capture);
    });
  } else {
    const FrameStages st = stages(strategy, frame_id);
    sim::Time device = st.device + crypto_delay(device_, cfg_.crypto, st.upload_bytes);
    stats_.energy_j += device_.active_power_w * sim::to_seconds(device);
    net_.sim().after(device, [this, frame_id, strategy] { offload_frame(frame_id, strategy); });
  }

  net_.sim().after(cfg_.video.frame_interval(), [this] { on_frame(); });
}

void OffloadSession::offload_frame(std::uint32_t frame_id, OffloadStrategy s) {
  ArtpMessageSpec m;
  m.frame_id = frame_id;
  m.trace = frame_trace(frame_id);
  m.bytes = stages(s, frame_id).upload_bytes;
  if (s != OffloadStrategy::kFullOffload) {
    m.app = AppData::kFeaturePayload;
    // Features are per-frame ephemeral: protect them with FEC but let the
    // sender shed stale ones — late features are worthless ("new data is
    // preferred to loss recovery", paper §VI-A).
    m.tclass = TrafficClass::kBestEffortLossRecovery;
    m.priority = Priority::kMediumNoDelay;
    m.stale_after = cfg_.deadline;
  } else {
    m.app = cfg_.video.frame_kind(frame_id);
    bool ref = cfg_.video.is_reference(frame_id);
    m.tclass = ref ? TrafficClass::kBestEffortLossRecovery : TrafficClass::kFullBestEffort;
    m.priority = ref ? Priority::kMediumNoDrop : Priority::kLowest;
  }
  stats_.uplink_bytes += m.bytes;
  ++stats_.offloaded_frames;
  client_tx_->send_message(m);
}

void OffloadSession::on_server_message(const transport::ArtpDelivery& d) {
  bool is_frame = d.app == AppData::kVideoReferenceFrame ||
                  d.app == AppData::kVideoInterFrame || d.app == AppData::kFeaturePayload;
  if (!is_frame || !d.complete) return;

  const OffloadStrategy sent_as = d.app == AppData::kFeaturePayload
                                     ? OffloadStrategy::kCloudRidAR
                                     : OffloadStrategy::kFullOffload;
  sim::Time compute = stages(sent_as, d.frame_id).surrogate;
  std::uint32_t frame_id = d.frame_id;
  trace_.emit(net_.sim().now(), trace::EventKind::kComputeStart, d.trace, frame_id,
              static_cast<std::int64_t>(compute));
  auto reply = [this, frame_id, ctx = d.trace] {
    trace_.emit(net_.sim().now(), trace::EventKind::kComputeDone, ctx, frame_id, 0);
    ArtpMessageSpec r;
    r.bytes = cloudridar::kResultBytes;
    r.frame_id = frame_id;
    r.app = AppData::kComputeResult;
    r.tclass = TrafficClass::kCriticalData;
    r.priority = Priority::kHighest;
    r.trace = ctx;
    server_tx_->send_message(r);
  };
  if (server_compute_) {
    server_compute_(compute, std::move(reply));
  } else {
    net_.sim().after(compute, std::move(reply));
  }
}

void OffloadSession::on_client_result(const transport::ArtpDelivery& d) {
  if (d.app != AppData::kComputeResult || !d.complete) return;
  auto it = capture_time_.find(d.frame_id);
  if (it == capture_time_.end()) return;
  finish_frame(d.frame_id, net_.sim().now() - it->second);
}

void OffloadSession::finish_frame(std::uint32_t frame_id, sim::Time latency) {
  auto it = capture_time_.find(frame_id);
  if (it == capture_time_.end()) return;
  capture_time_.erase(it);
  const bool missed = stats_.complete(latency, cfg_.deadline);
  trace_.verdict(net_.sim().now(), frame_trace(frame_id), frame_id, latency, missed);
  if (missed && cfg_.flight) cfg_.flight->dump("deadline-miss");
  if (cfg_.slo) cfg_.slo->observe(net_.sim().now(), sim::to_milliseconds(latency));
  if (cfg_.metrics) {
    instruments_.latency.get(*cfg_.metrics, "mar.frame_latency_ms", kEntity)
        .record(sim::to_milliseconds(latency));
    if (missed) {
      instruments_.deadline_miss.get(*cfg_.metrics, "mar.deadline_miss", kEntity).add();
    } else {
      instruments_.deadline_hit.get(*cfg_.metrics, "mar.deadline_hit", kEntity).add();
    }
  }
  if (result_cb_) result_cb_(frame_id, latency);
}

}  // namespace arnet::mar
