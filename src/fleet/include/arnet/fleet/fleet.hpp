#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arnet/fleet/admission.hpp"
#include "arnet/fleet/autoscaler.hpp"
#include "arnet/fleet/balancer.hpp"
#include "arnet/fleet/cell.hpp"
#include "arnet/fleet/population.hpp"
#include "arnet/fleet/server.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::fleet {

/// A packet-level edge cell: the shared cell description plus what only the
/// event model has — a balancer, an autoscaler and observers.
struct FleetConfig : EdgeCell {
  BalancerPolicy policy = BalancerPolicy::kLeastOutstanding;
  AutoscalerConfig autoscaler;
  /// Observers; the fleet wires them (trace::Telemetry::wire) and hands
  /// its servers the registry and tracer. Metric entities are "<entity>",
  /// "<entity>/server:N" and "<entity>/class:<device>". The sampler's
  /// outlier threshold tracks the admission controller's live p99
  /// projection, frames it retained become m2p histogram exemplars, and
  /// admission rejects/downgrades (which carry no trace context) become
  /// its notes. The SLO tracker observes every completed frame's latency.
  trace::Telemetry telemetry;
  std::string entity = "fleet";
};

/// Session admission counts plus the ledger of frames captured by admitted
/// sessions (motion-to-photon latency, all device classes).
struct FleetStats : sim::FrameLedger {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;    ///< full quality
  std::uint64_t downgraded = 0;  ///< admitted degraded
  std::uint64_t rejected = 0;
};

/// The multi-user edge serving layer: a seeded population arrives, admission
/// decides, a balancer spreads admitted sessions' frames over the active
/// edge servers, batched compute queues serve them, and an optional
/// autoscaler grows/shrinks the active set. Everything runs on one
/// sim::Simulator and is bit-deterministic in (config, seed).
///
/// The frame path is modeled at frame granularity (not packet granularity):
/// device stage -> uplink (site RTT/2 + serialization) -> batched server
/// queue -> downlink -> result. That keeps a 200-user sweep tractable while
/// reusing the calibrated Table I device costs and the §VI-F edge latency
/// model; packet-level effects are covered by the single-session stacks.
class Fleet {
 public:
  Fleet(sim::Simulator& sim, FleetConfig cfg);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void start();
  void stop();

  const FleetStats& stats() const { return stats_; }
  std::uint64_t active_sessions() const { return sessions_.size(); }
  std::size_t active_servers() const { return active_; }
  EdgeServer& server(std::size_t i) { return *servers_.at(i); }
  const AdmissionController& admission() const { return admission_; }
  const Autoscaler& autoscaler() const { return autoscaler_; }
  const PopulationModel& population() const { return population_; }

 private:
  struct Session {
    SessionSpec spec;
    bool degraded = false;
    sim::Time ends = 0;
    double fps = 30.0;
    std::uint32_t next_frame = 0;
  };

  /// One frame between capture and result: everything its later stages
  /// read, copied at capture because the session may retire while the frame
  /// is in flight (late results must still be accounted). Frames live in
  /// the in-flight table, so the frame's closures capture only a slot index.
  struct InFlight {
    std::uint64_t uid = 0;
    std::uint64_t session = 0;
    std::uint32_t frame = 0;
    mar::DeviceClass device{};
    sim::Time t0 = 0;
    sim::Time downlink = 0;
    trace::TraceContext ctx;
    EdgeServer* server = nullptr;
  };

  /// The fleet's instruments, each resolved on first touch.
  struct Instruments {
    obs::Handle<obs::Counter> arrivals, frames, hit, miss, scale_out, scale_in;
    std::array<obs::Handle<obs::Counter>, 3> decisions;  ///< by AdmissionDecision
    obs::Handle<obs::Gauge> active_sessions, active_servers, utilization;
    obs::Handle<obs::Histogram> m2p;
    std::array<obs::Handle<obs::Histogram>, mar::kDeviceClassCount> class_m2p;
  };

  void add_server();
  void on_arrival(const SessionSpec& spec);
  void retire(std::uint64_t sid);
  void capture_frame(std::uint64_t sid);
  void submit_frame(std::uint32_t slot);
  void finish_frame(std::uint32_t slot);
  void autoscale_tick();
  void publish_gauges();

  sim::Simulator& sim_;
  FleetConfig cfg_;
  PopulationModel population_;
  AdmissionController admission_;
  LoadBalancer balancer_;
  Autoscaler autoscaler_;
  std::vector<std::unique_ptr<EdgeServer>> servers_;
  std::size_t active_ = 0;  ///< servers_[0..active_) form the active set
  std::vector<sim::Time> busy_snapshot_;  ///< per-server busy at last tick
  std::map<std::uint64_t, Session> sessions_;
  /// In-flight frames: a stable slab recycled through a LIFO free list.
  std::deque<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  bool running_ = false;
  std::uint64_t next_frame_uid_ = 0;
  trace::Emitter trace_;
  obs::MetricsRegistry* metrics_;  ///< cfg_.telemetry.metrics
  Instruments instruments_;
  FleetStats stats_;
};

}  // namespace arnet::fleet
