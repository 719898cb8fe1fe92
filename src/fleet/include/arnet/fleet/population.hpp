#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "arnet/edge/placement.hpp"
#include "arnet/mar/cost_model.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"

namespace arnet::fleet {

/// Session arrival process shape.
enum class ArrivalProcess {
  kPoisson,  ///< homogeneous (modulated only by the diurnal profile)
  kMmpp,     ///< 2-state Markov-modulated Poisson: calm / burst
};

const char* to_string(ArrivalProcess p);

/// One entry of the device-class mix (Table I classes with relative weights).
struct DeviceMixEntry {
  mar::DeviceClass cls = mar::DeviceClass::kSmartphone;
  double weight = 1.0;
};

/// The device classes users bring: the packet model picks one per session,
/// the fluid cell weights its latency probes by them.
inline constexpr std::array<DeviceMixEntry, 3> kDeviceMix = {{
    {mar::DeviceClass::kSmartphone, 0.55},
    {mar::DeviceClass::kTablet, 0.25},
    {mar::DeviceClass::kSmartGlasses, 0.20},
}};

/// The application a session runs: per-frame request/result sizes, frame
/// rate, the motion-to-photon budget, and the reference (desktop) costs of
/// the device-side and server-side stages, read from mar's CloudRidAR table.
/// Devices scale the device stage by their Table I compute_scale; servers
/// scale the server stage.
struct AppProfile {
  double fps = 30.0;
  std::int64_t request_bytes = mar::cloudridar::kFeatureBytes;  ///< uploaded per frame
  std::int64_t result_bytes = mar::cloudridar::kResultBytes;    ///< returned per frame
  sim::Time deadline = mar::kFrameDeadline;
  sim::Time device_cost = mar::cloudridar::kFleetExtract;
  sim::Time server_cost = mar::cloudridar::kRecognize;
};

/// The one application every edge cell serves: CloudRidAR-style recognition,
/// the paper's §III-B app described by f(a), p(a), its payload and delta_a.
inline constexpr AppProfile kApp{};

/// One generated user session: everything about it is decided at mint time
/// from a per-session random stream, so a session's identity never depends
/// on what the rest of the population did.
struct SessionSpec {
  std::uint64_t id = 0;
  sim::Time arrival = 0;
  sim::Time lifetime = 0;
  mar::DeviceClass device = mar::DeviceClass::kSmartphone;
  edge::GeoPoint pos;
};

/// A cell-local diurnal intensity profile: piecewise multipliers cycled over
/// `period`, sampled at `(t + phase) % period`. The phase offset lets a city
/// of cells share one canonical day shape while each cell lives in its own
/// part of it (staggered rush hours across neighborhoods).
struct DiurnalProfile {
  std::vector<double> curve;  ///< empty = inactive (flat 1.0)
  sim::Time period = sim::seconds(86400);
  sim::Time phase = 0;

  bool active() const { return !curve.empty() && period > 0; }
  /// Intensity multiplier at simulated time `t` (1.0 when inactive).
  double multiplier(sim::Time t) const;
  /// Largest multiplier (floored at 1.0: the thinning envelope must always
  /// dominate the instantaneous rate).
  double peak() const;
};

struct PopulationConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Mean session arrivals per second at diurnal multiplier 1.0 (calm state).
  double base_arrivals_per_s = 5.0;
  /// MMPP burst state: intensity multiplier and mean dwell times.
  double burst_multiplier = 3.0;
  double burst_dwell_mean_s = 10.0;
  double calm_dwell_mean_s = 30.0;
  /// Diurnal intensity profile; inactive (the default) is flat.
  DiurnalProfile profile;
  double mean_lifetime_s = 20.0;
  /// Users are placed uniformly in the [0, area_km]^2 square.
  double area_km = 4.0;
};

/// The arrival process's stream for a cell seeded `seed`: every
/// interarrival, thinning and MMPP dwell draw of the packet-level
/// PopulationModel and of the fluid cell comes from it, so a sharded city's
/// per-cell streams are exactly the derive_seed(root, cell) chain.
inline sim::Rng arrival_stream(std::uint64_t seed) { return sim::Rng(sim::derive_seed(seed, 0)); }

/// The MMPP calm/burst phase of an arrival process, advanced lazily: every
/// flip due by `now` draws its dwell from `rng`, and a Poisson process never
/// leaves calm. The one dwell loop both the packet-level PopulationModel and
/// the fluid cell run, each on its own arrival_stream.
/// Defined inline because the fluid cell runs it on every tick.
struct MmppPhase {
  bool burst = false;
  sim::Time until = 0;  ///< next state flip

  void advance(sim::Time now, sim::Rng& rng, const PopulationConfig& cfg) {
    while (cfg.process == ArrivalProcess::kMmpp && now >= until) {
      burst = until == 0 ? false : !burst;
      const double dwell =
          rng.exponential(burst ? cfg.burst_dwell_mean_s : cfg.calm_dwell_mean_s);
      until = std::max(now, until) + sim::from_seconds(dwell);
    }
  }
};

/// Instantaneous session arrival rate (1/s) of `cfg` at simulated time `t`:
/// base x diurnal multiplier x burst multiplier while `phase` is in burst.
/// The one rate rule both models use, so they agree on the arrival rate.
inline double arrival_rate(const PopulationConfig& cfg, sim::Time t, const MmppPhase& phase) {
  double rate = cfg.base_arrivals_per_s * cfg.profile.multiplier(t);
  if (phase.burst) rate *= cfg.burst_multiplier;
  return rate;
}

/// Seeded session generator. Determinism contract: the arrival point
/// process (including MMPP state flips and diurnal thinning) consumes
/// arrival_stream(seed); each session's attributes come from its own stream,
/// derive_seed(seed, id + 1).
/// Two runs with the same seed therefore mint bit-identical populations,
/// and session k's device/position/lifetime are independent of how many
/// sessions arrived before it. A population whose base rate is 0 never
/// schedules an arrival.
class PopulationModel {
 public:
  PopulationModel(sim::Simulator& sim, PopulationConfig cfg, std::uint64_t seed);

  /// Invoked at each session's arrival time, in arrival order.
  void set_session_callback(std::function<void(const SessionSpec&)> cb) {
    cb_ = std::move(cb);
  }

  void start();
  void stop() { running_ = false; }

  std::uint64_t generated() const { return next_id_; }

  /// Instantaneous arrival rate (1/s) including diurnal and MMPP state.
  double rate_at(sim::Time t) const;

  /// Mint the attributes of session `id` as they would arrive at `now`
  /// (exposed so tests can assert arrival-order independence).
  SessionSpec make_session(std::uint64_t id, sim::Time now) const;

 private:
  void schedule_next();

  sim::Simulator& sim_;
  PopulationConfig cfg_;
  std::uint64_t seed_;
  sim::Rng arrivals_;  ///< arrival_stream(seed)
  std::uint64_t next_id_ = 0;
  bool running_ = false;
  MmppPhase phase_;
  double peak_rate_ = 0.0;  ///< thinning envelope
  std::function<void(const SessionSpec&)> cb_;
};

}  // namespace arnet::fleet
