#pragma once

#include <cstdint>
#include <string>

#include "arnet/sim/stats.hpp"
#include "arnet/sim/time.hpp"
#include "arnet/trace/telemetry.hpp"

namespace arnet::core {

/// Transport under test in the shootout: the paper's ARTP proposal against
/// the TCP loss-based baselines (Reno/CUBIC), the model-based BBR, and a
/// congestion-blind paced-UDP QUIC-lite stack.
enum class ShootoutTransport {
  kArtp,
  kReno,
  kCubic,
  kBbr,
  kQuicLite,
};

/// Access network the AR uplink crosses (paper §IV-A technologies).
enum class ShootoutNetwork {
  kWifi,  ///< shared DCF cell with saturated contender stations
  kLte,   ///< everyday LTE (fading + jitter + spikes)
  kNr5g,  ///< 5G NR: very fast but volatile, with mmWave blockage bursts
};

const char* to_string(ShootoutTransport t);
const char* to_string(ShootoutNetwork n);

/// Delivery deadline every shootout frame is scored against.
inline constexpr sim::Time kShootoutDeadline = sim::milliseconds(50);

/// One cell of the transport shootout grid: a single AR client uploading
/// ~30 KB camera frames at 30 fps over one access network, scored
/// frame-by-frame against kShootoutDeadline (the arvr-sim methodology:
/// every frame ends up exactly one of on-time, late, or incomplete).
struct ShootoutCellConfig {
  ShootoutTransport transport = ShootoutTransport::kArtp;
  ShootoutNetwork network = ShootoutNetwork::kWifi;
  sim::Time duration = sim::seconds(20);

  std::string name() const;
};

/// Per-cell outcome; the latency summary covers completed frames.
/// `frames_incomplete` counts every submitted frame that never fully arrived
/// (shed, expired, or still in flight at the end): on_time + late + incomplete == sent.
struct ShootoutCellResult : sim::LatencySummary {
  std::string name;
  std::int64_t frames_sent = 0;
  std::int64_t frames_on_time = 0;
  std::int64_t frames_late = 0;
  std::int64_t frames_incomplete = 0;
  double hit_ratio = 0.0;  ///< on_time / sent
  /// Application bytes delivered per second of simulated time, in Mb/s
  /// (completed frames for ARTP/QUIC-lite, stream bytes for TCP).
  double goodput_mbps = 0.0;
  double sim_seconds = 0.0;
  std::int64_t sim_events = 0;
};

/// Builds the cell's topology + transport, runs it for `cfg.duration` (plus a
/// short drain so in-flight frames classify), and scores every frame.
/// Deterministic per (cfg, seed): equal inputs give byte-equal results.
///
/// `telemetry` observes the cell and never perturbs it (fingerprint-
/// neutral). With a tracer, every submitted frame mints a trace id and
/// records capture/done/miss events (plus a drop event for frames that never
/// reassemble), so the tail sampler sees the same span stream the fleet
/// produces. The SLO tracker observes every frame's one verdict: on-time
/// and late frames by latency, incompletes as explicit misses.
ShootoutCellResult run_shootout_cell(const ShootoutCellConfig& cfg, std::uint64_t seed,
                                     const trace::Telemetry& telemetry = {});

}  // namespace arnet::core
