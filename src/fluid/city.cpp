#include "arnet/fluid/city.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "arnet/check/assert.hpp"
#include "arnet/mar/cost_model.hpp"
#include "arnet/obs/registry.hpp"

namespace arnet::fluid {

namespace {

/// RTT and formation-wait quantiles of a city cell's latency probe grid.
constexpr int kProbeQuantiles = 2;

}  // namespace

const std::vector<CityArchetype>& city_archetypes() {
  static const std::vector<CityArchetype> archetypes = [] {
    std::vector<CityArchetype> a(5);
    // Downtown core: business-hours plateau; admission-controlled (the
    // operator protects the dense deployment instead of letting p99 run away).
    a[0].name = "core";
    a[0].base_users = 500.0;
    a[0].curve = {0.25, 0.2, 0.15, 0.12, 0.12, 0.2, 0.5, 1.0, 1.6, 2.0, 2.0, 1.9,
                  1.8,  1.9, 2.0,  1.9,  1.7,  1.4, 1.0, 0.7, 0.55, 0.45, 0.35, 0.3};
    a[0].admit = true;
    a[0].servers = 16;
    // Commercial ring: daytime shopping curve, lightly over-provisioned.
    a[1].name = "commercial";
    a[1].base_users = 320.0;
    a[1].curve = {0.3, 0.25, 0.2, 0.2, 0.2, 0.3, 0.5, 0.8, 1.2, 1.5, 1.7, 1.8,
                  1.8, 1.7,  1.6, 1.5, 1.4, 1.3, 1.1, 0.9, 0.7, 0.55, 0.45, 0.35};
    a[1].servers = 12;
    // Residential: twin commute peaks; the evening one breaches the knee.
    a[2].name = "residential";
    a[2].base_users = 260.0;
    a[2].curve = {0.5,  0.35, 0.25, 0.2, 0.2, 0.3, 0.8, 1.3, 1.0, 0.7, 0.6, 0.6,
                  0.65, 0.7,  0.7,  0.8, 1.0, 1.4, 1.8, 2.0, 1.9, 1.5, 1.0, 0.7};
    a[2].servers = 9;
    // Nightlife: evening/night peak; admission-controlled.
    a[3].name = "nightlife";
    a[3].base_users = 280.0;
    a[3].curve = {1.4, 1.1, 0.8, 0.5, 0.3, 0.2, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                  0.8, 0.9, 1.0, 1.1, 1.2, 1.4, 1.7, 2.0, 2.2, 2.2, 2.0, 1.7};
    a[3].admit = true;
    a[3].servers = 11;
    // Transit hubs: commute shape plus MMPP event bursts (a delayed train, a
    // stadium letting out) long enough to move a 10-minute-lifetime population.
    a[4].name = "transit";
    a[4].base_users = 240.0;
    a[4].curve = {0.3, 0.2, 0.15, 0.15, 0.2, 0.5, 1.0, 1.5, 1.3, 0.9, 0.8, 0.8,
                  0.9, 0.9, 0.9,  1.0,  1.3, 1.5, 1.2, 0.9, 0.7, 0.6, 0.5, 0.4};
    a[4].process = fleet::ArrivalProcess::kMmpp;
    a[4].burst_multiplier = 2.0;
    a[4].burst_dwell_s = 1200.0;
    a[4].calm_dwell_s = 5400.0;
    a[4].servers = 8;
    return a;
  }();
  return archetypes;
}

std::size_t archetype_index(const CityConfig& city, int cx, int cy) {
  const double dx = cx + 0.5 - static_cast<double>(city.grid_x) / 2.0;
  const double dy = cy + 0.5 - static_cast<double>(city.grid_y) / 2.0;
  const double r = std::sqrt(dx * dx + dy * dy) /
                   (std::max(1, std::min(city.grid_x, city.grid_y)) / 2.0);
  if (r < 0.25) return 0;             // downtown core
  if (r < 0.45) return 1;             // commercial ring
  const unsigned h = static_cast<unsigned>(cx) * 31u + static_cast<unsigned>(cy) * 17u;
  if (h % 10u < 2u) return 3;         // nightlife pockets
  if (h % 10u == 2u) return 4;        // transit hubs
  return 2;                           // residential fabric
}

FluidConfig make_city_cell(const CityConfig& city, std::size_t index,
                           std::uint64_t seed) {
  ARNET_CHECK(index < city.cells(), "city cell index out of range");
  const int cx = static_cast<int>(index) % city.grid_x;
  const int cy = static_cast<int>(index) / city.grid_x;
  const CityArchetype& arch = city_archetypes()[archetype_index(city, cx, cy)];

  FluidConfig f;
  f.seed = seed;
  f.population.process = arch.process;
  f.population.base_arrivals_per_s =
      arch.base_users / std::max(1e-9, city.mean_lifetime_s);
  f.population.mean_lifetime_s = city.mean_lifetime_s;
  f.population.burst_multiplier = arch.burst_multiplier;
  f.population.burst_dwell_mean_s = arch.burst_dwell_s;
  f.population.calm_dwell_mean_s = arch.calm_dwell_s;
  // Cell-local day shape: shared archetype curve, staggered so neighboring
  // cells of the same class don't hit rush hour in lockstep.
  f.population.profile.curve = arch.curve;
  f.population.profile.period = city.day;
  f.population.profile.phase =
      (static_cast<sim::Time>((cx + cy) % 3) - 1) * (city.day / 24);
  f.population.area_km = 1.0;  // a dense city cell, not the 4 km default
  f.servers = arch.servers;
  f.admission.enabled = arch.admit;
  f.tick = city.tick;
  f.duration = city.day;
  f.rtt_quantiles = kProbeQuantiles;
  f.wait_quantiles = kProbeQuantiles;
  std::ostringstream name;
  name << "cell:" << (cx < 10 ? "0" : "") << cx << "," << (cy < 10 ? "0" : "")
       << cy << "/" << arch.name;
  f.entity = name.str();
  return f;
}

slo::SloConfig city_slo_config(const CityConfig& city, const std::string& entity) {
  slo::SloConfig c;
  c.deadline_ms = sim::to_milliseconds(mar::kFrameDeadline);
  // Burn windows scaled to the diurnal horizon: fast catches a neighborhood
  // tipping over its knee within half an hour (of a 24 h day), slow the
  // sustained multi-hour drift.
  c.fast_window = city.day / 48;
  c.slow_window = city.day / 4;
  c.slots_per_fast_window = 6;
  c.entity = entity;
  return c;
}

CityCellOutcome run_city_cell(const CityConfig& city, std::size_t index,
                              std::uint64_t seed, obs::MetricsRegistry* metrics,
                              slo::SloTracker* slo) {
  FluidConfig f = make_city_cell(city, index, seed);
  f.metrics = metrics;
  f.slo = slo;

  CityCellOutcome out;
  out.index = index;
  out.cx = static_cast<int>(index) % city.grid_x;
  out.cy = static_cast<int>(index) / city.grid_x;
  const std::string entity = f.entity;
  const std::size_t slash = entity.rfind('/');
  out.archetype = slash == std::string::npos ? entity : entity.substr(slash + 1);

  FluidCell cell(std::move(f));
  out.r = cell.run();

  if (metrics) {
    if (slo) slo->publish(*metrics);
    metrics->gauge("city.peak_sessions", entity).set(out.r.peak_sessions);
    metrics->gauge("city.knee_sessions", entity).set(out.r.knee_sessions);
    metrics->gauge("city.p50_ms", entity).set(out.r.p50_ms);
    metrics->gauge("city.p99_ms", entity).set(out.r.p99_ms);
    metrics->gauge("city.miss_rate", entity).set(out.r.miss_rate);
    metrics->gauge("city.served_fps", entity).set(out.r.served_fps);
    metrics->gauge("city.rejected", entity)
        .set(static_cast<double>(out.r.rejected));
    metrics->gauge("city.first_breach_s", entity)
        .set(out.r.first_breach < 0 ? -1.0 : sim::to_seconds(out.r.first_breach));
  }
  return out;
}

}  // namespace arnet::fluid
