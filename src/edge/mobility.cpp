#include "arnet/edge/mobility.hpp"

#include <algorithm>
#include <cmath>

namespace arnet::edge {

namespace {

constexpr double kSpeedKmhMin = 3.0;   ///< walking
constexpr double kSpeedKmhMax = 40.0;  ///< bus/car
constexpr sim::Time kPauseMax = sim::seconds(60);
constexpr sim::Time kReselectInterval = sim::seconds(5);
constexpr double kInterDcBps = 1e9;

}  // namespace

RandomWaypoint::RandomWaypoint(sim::Rng rng, double city_km)
    : rng_(std::move(rng)), city_km_(city_km) {
  from_ = {rng_.uniform(0, city_km_), rng_.uniform(0, city_km_)};
  to_ = from_;
  next_leg();
}

void RandomWaypoint::next_leg() {
  from_ = to_;
  to_ = {rng_.uniform(0, city_km_), rng_.uniform(0, city_km_)};
  double speed_kms = rng_.uniform(kSpeedKmhMin, kSpeedKmhMax) / 3600.0;
  double dist = distance_km(from_, to_);
  leg_start_ = pause_until_;
  leg_end_ = leg_start_ + sim::from_seconds(dist / std::max(speed_kms, 1e-6));
  pause_until_ = leg_end_ + sim::from_seconds(rng_.uniform(0, sim::to_seconds(kPauseMax)));
}

GeoPoint RandomWaypoint::position_at(sim::Time t) {
  while (t >= pause_until_) next_leg();
  if (t <= leg_start_) return from_;
  if (t >= leg_end_) return to_;
  double f = static_cast<double>(t - leg_start_) / static_cast<double>(leg_end_ - leg_start_);
  return {from_.x_km + f * (to_.x_km - from_.x_km), from_.y_km + f * (to_.y_km - from_.y_km)};
}

MigrationStudy::Result MigrationStudy::run(const std::vector<CandidateSite>& sites,
                                           const std::vector<int>& chosen, int users,
                                           std::uint64_t seed, const Config& cfg) {
  Result result;
  sim::Rng root(seed);
  sim::Time transfer = sim::transmission_delay(cfg.session_state_bytes, kInterDcBps);

  std::int64_t samples = 0, out_of_constraint = 0;
  for (int u = 0; u < users; ++u) {
    RandomWaypoint walker(root.fork("user" + std::to_string(u)), cfg.city_km);
    int current_dc = -1;
    for (sim::Time t = 0; t < cfg.duration; t += kReselectInterval) {
      GeoPoint pos = walker.position_at(t);
      // Nearest feasible chosen site.
      int best = -1;
      sim::Time best_rtt = sim::kNever;
      for (int s : chosen) {
        sim::Time r = LatencyModel{}.rtt(pos, sites[static_cast<std::size_t>(s)].pos);
        if (r < best_rtt) {
          best_rtt = r;
          best = s;
        }
      }
      ++samples;
      if (best < 0 || best_rtt > cfg.max_rtt) {
        ++out_of_constraint;
        continue;
      }
      result.rtt_ms.add(sim::to_milliseconds(best_rtt));
      if (current_dc >= 0 && best != current_dc) {
        ++result.migrations;
      }
      current_dc = best;
    }
  }
  result.out_of_constraint_fraction =
      samples ? static_cast<double>(out_of_constraint) / static_cast<double>(samples) : 0.0;
  result.mean_migration_downtime = transfer;
  double user_hours = users * sim::to_seconds(cfg.duration) / 3600.0;
  result.migrations_per_user_hour =
      user_hours > 0 ? result.migrations / user_hours : 0.0;
  return result;
}

}  // namespace arnet::edge
