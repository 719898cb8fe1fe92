#pragma once

#include <vector>

#include "arnet/edge/placement.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/sim/time.hpp"

namespace arnet::edge {

/// Random-waypoint walker inside a `city_km` square: picks a destination,
/// travels there at a speed drawn from walking (3 km/h) to bus or car
/// (40 km/h), pauses up to a minute, repeats. Drives the dynamic
/// server-selection study (paper §VI-E: "the nearest server would be
/// selected for a given path", which changes as the user moves).
class RandomWaypoint {
 public:
  RandomWaypoint(sim::Rng rng, double city_km);

  /// Position at absolute time `t` (t must not decrease between calls).
  GeoPoint position_at(sim::Time t);

 private:
  void next_leg();

  sim::Rng rng_;
  double city_km_;
  GeoPoint from_{}, to_{};
  sim::Time leg_start_ = 0;
  sim::Time leg_end_ = 0;
  sim::Time pause_until_ = 0;
};

/// Offline simulation of mobile users against a fixed edge deployment:
/// every 5 s each user re-picks the nearest feasible datacenter under the
/// default LatencyModel; switching datacenters costs a
/// session migration (state transfer over a 1 Gb/s inter-DC link + n-way
/// re-sync, §VI-E).
struct MigrationStudy {
  struct Config {
    sim::Time duration = sim::seconds(1800);
    double city_km = 20.0;  ///< walkers roam this square
    std::int64_t session_state_bytes = 2'000'000;  ///< maps/features/pose state
    sim::Time max_rtt = sim::milliseconds(12);  ///< app constraint
  };

  struct Result {
    sim::Samples rtt_ms;            ///< sampled user->assigned-DC RTT
    int migrations = 0;
    double out_of_constraint_fraction = 0.0;  ///< time with no feasible DC
    sim::Time mean_migration_downtime = 0;    ///< per-migration state-transfer time
    double migrations_per_user_hour = 0.0;
  };

  /// Run `users` random-waypoint walkers against the chosen sites.
  static Result run(const std::vector<CandidateSite>& sites, const std::vector<int>& chosen,
                    int users, std::uint64_t seed, const Config& cfg);
};

}  // namespace arnet::edge
