#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "arnet/mar/cost_model.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/mar/security.hpp"
#include "arnet/mar/traffic.hpp"
#include "arnet/net/network.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/flight.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/artp.hpp"

namespace arnet::mar {

/// Offloading strategies from the paper's §III-B discussion.
enum class OffloadStrategy {
  kLocalOnly,    ///< everything on the device
  kFullOffload,  ///< ship compressed frames, all vision on the surrogate
  kCloudRidAR,   ///< extract features locally, upload features only [13]
  kGlimpse,      ///< track locally, offload selected trigger frames [25]
  kAdaptive,     ///< pick the split at runtime from live link QoS (the
                 ///< paper's x/y parameters chosen dynamically)
};

const char* to_string(OffloadStrategy s);

struct OffloadConfig {
  OffloadStrategy strategy = OffloadStrategy::kCloudRidAR;
  DeviceClass device = DeviceClass::kSmartphone;
  VideoModel video;  ///< defaults to 720p30
  SensorModel sensors;
  MetadataModel metadata;
  int glimpse_offload_interval = 5;    ///< offload every Nth frame (fixed mode), >= 1
  /// Glimpse with a dynamic trigger: track locally while the simulated
  /// tracking quality holds, offload a fresh recognition frame when it
  /// drops below a fixed threshold (the actual Glimpse policy).
  bool glimpse_adaptive = false;
  /// Mean per-frame tracking-quality decay (scene/camera motion level).
  double glimpse_motion_level = 0.04;
  sim::Time deadline = kFrameDeadline;
  transport::ArtpSenderConfig artp;    ///< uplink transport settings
  bool send_sensor_stream = true;
  /// §VI-G: encrypt everything leaving the device. Adds per-packet wire
  /// overhead and device-scaled AEAD compute time per offloaded payload.
  CryptoProfile crypto = CryptoProfile::kNone;
  /// When set, the session publishes "mar.frames" / "mar.deadline_hit" /
  /// "mar.deadline_miss" counters and a "mar.frame_latency_ms" histogram
  /// under entity "mar". The registry must outlive the session.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, every captured frame mints a fresh trace id that is stamped
  /// on all of its uplink chunks, the server compute span and the downlink
  /// result — so one frame's full causal chain can be extracted from the
  /// rings (frame_breakdown). Recorded under entity "mar" and propagated
  /// into the session's ARTP endpoints as "mar/..." entities. The tracer
  /// must outlive the session.
  trace::Tracer* tracer = nullptr;
  /// Instrumentation granularity. True (deep-dive default) propagates the
  /// tracer into the session's ARTP endpoints, so every chunk/ack/repair
  /// emits an event — the stream frame_breakdown and the pcap/Perfetto
  /// exporters want. False is the *span-level* operating point used by
  /// sampled (tail-sampling) runs: only frame-scoped spans (capture,
  /// compute, completion) are recorded, which is what keeps the telemetry
  /// stack inside its overhead budget (DESIGN.md §14) — packet-level events
  /// remain a deep-dive tool, priced separately.
  bool trace_transport = true;
  /// When set together with `tracer`, a deadline miss dumps the flight
  /// recorder (cause "deadline-miss"); ARNET_CHECK failures dump via the
  /// recorder's own failure hook regardless.
  trace::FlightRecorder* flight = nullptr;
  /// When set, every completed frame's latency feeds the tracker's
  /// burn-rate windows (the single-session analogue of the fleet wiring).
  /// Must outlive the session.
  slo::SloTracker* slo = nullptr;
};

/// Per-frame statistics of one offloading run: the ledger counts frames with
/// a recognition result, at capture -> result-on-device latency.
struct OffloadStats : sim::FrameLedger {
  std::int64_t offloaded_frames = 0;
  std::int64_t uplink_bytes = 0;
  double energy_j = 0.0;  ///< device-side compute energy
};

/// One client/server offloading session wired over a Network: the client
/// node captures frames and runs the configured strategy over ARTP; the
/// server node runs the remaining vision stages and returns results.
///
/// Vision *costs* are modeled (device-scaled constants calibrated by the
/// micro-benchmarks); the actual pixel pipeline lives in arnet_vision and is
/// exercised by the examples, keeping simulations deterministic.
class OffloadSession {
 public:
  OffloadSession(net::Network& net, net::NodeId client, net::NodeId server, OffloadConfig cfg,
                 std::vector<transport::ArtpPathConfig> paths = {});
  ~OffloadSession();

  OffloadSession(const OffloadSession&) = delete;
  OffloadSession& operator=(const OffloadSession&) = delete;

  /// Begin capturing; runs until `stop()` or simulation end.
  void start();
  void stop();

  const OffloadStats& stats() const { return stats_; }
  transport::ArtpSender& uplink() { return *client_tx_; }

  /// Strategy the session is executing right now (differs from the config
  /// under kAdaptive).
  OffloadStrategy active_strategy() const { return active_strategy_; }
  int strategy_switches() const { return strategy_switches_; }

  /// One frame's stages under a concrete strategy (device compute excludes
  /// AEAD). Glimpse reports its trigger frames; kAdaptive runs as CloudRidAR.
  FrameStages stages(OffloadStrategy s, std::uint32_t frame_id) const;

  /// Hands `work` of already device-scaled surrogate time to a queue that
  /// calls `done` when the work completes.
  using ComputeSubmit = std::function<void(sim::Time work, std::function<void()> done)>;

  /// Route the surrogate's vision work through a shared worker pool so
  /// concurrent sessions contend for server compute (empty = dedicated
  /// capacity, the default). The pool is an unbatched fleet::EdgeServer in
  /// every caller; arnet_mar links below arnet_fleet, so it takes a hook.
  /// Call before start().
  void set_server_compute(ComputeSubmit submit) { server_compute_ = std::move(submit); }

  /// Invoked on every recognition result with its end-to-end latency.
  void set_result_callback(std::function<void(std::uint32_t frame, sim::Time latency)> cb) {
    result_cb_ = std::move(cb);
  }

  /// Trace context minted for `frame_id` at capture (inactive when the
  /// session is untraced or the frame was never captured). Kept for the
  /// session's lifetime so exemplar frames can be broken down post-run.
  trace::TraceContext frame_trace(std::uint32_t frame_id) const {
    auto it = frame_trace_.find(frame_id);
    return it == frame_trace_.end() ? trace::TraceContext{} : it->second;
  }

 private:
  void on_frame();
  void on_sensor_batch();
  void on_metadata_beat();
  void adapt_tick();
  void offload_frame(std::uint32_t frame_id, OffloadStrategy s);
  void on_server_message(const transport::ArtpDelivery& d);
  void on_client_result(const transport::ArtpDelivery& d);
  void finish_frame(std::uint32_t frame_id, sim::Time latency);

  net::Network& net_;
  net::NodeId client_, server_;
  OffloadConfig cfg_;
  const DeviceProfile& device_;
  const DeviceProfile& surrogate_;

  std::unique_ptr<transport::ArtpSender> client_tx_;    ///< client -> server
  std::unique_ptr<transport::ArtpReceiver> server_rx_;
  std::unique_ptr<transport::ArtpSender> server_tx_;    ///< server -> client
  std::unique_ptr<transport::ArtpReceiver> client_rx_;

  net::Port port_base_ = 0;  ///< 4-port block, released on teardown
  bool running_ = false;
  OffloadStrategy active_strategy_;
  int strategy_switches_ = 0;
  std::uint32_t next_frame_ = 0;
  // Glimpse dynamic-trigger state.
  sim::Rng track_rng_;
  double tracking_quality_ = 1.0;
  ComputeSubmit server_compute_;
  std::map<std::uint32_t, sim::Time> capture_time_;
  trace::Emitter trace_;
  /// The session's per-frame instruments, each resolved on first touch.
  struct Instruments {
    obs::Handle<obs::Counter> frames, deadline_hit, deadline_miss;
    obs::Handle<obs::Histogram> latency;
  } instruments_;
  std::map<std::uint32_t, trace::TraceContext> frame_trace_;
  OffloadStats stats_;
  std::function<void(std::uint32_t, sim::Time)> result_cb_;
};

}  // namespace arnet::mar
