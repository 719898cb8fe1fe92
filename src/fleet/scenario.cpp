#include "arnet/fleet/scenario.hpp"

#include <algorithm>

#include "arnet/check/assert.hpp"

namespace arnet::fleet {

EdgeCell edge_cell(const CellConfig& cell, std::uint64_t seed) {
  EdgeCell e;
  e.seed = seed;
  e.population.process = cell.process;
  e.population.mean_lifetime_s = cell.mean_lifetime_s;
  e.population.base_arrivals_per_s = cell.offered_users / std::max(1e-9, cell.mean_lifetime_s);
  e.servers = cell.servers;
  e.batch.enabled = cell.batched;
  e.admission.enabled = cell.admit;
  return e;
}

FleetConfig cell_fleet_config(const CellConfig& cell, std::uint64_t seed) {
  FleetConfig cfg;
  static_cast<EdgeCell&>(cfg) = edge_cell(cell, seed);
  cfg.entity = cell.name;
  cfg.policy = cell.policy;
  cfg.autoscaler.enabled = cell.autoscale;
  cfg.autoscaler.min_servers = cell.servers;
  cfg.autoscaler.max_servers = cell.servers + 4;
  return cfg;
}

CellResult run_capacity_cell(const CellConfig& cell, std::uint64_t seed,
                             const trace::Telemetry& telemetry) {
  sim::Simulator sim;
  FleetConfig cfg = cell_fleet_config(cell, seed);
  cfg.telemetry = telemetry;
  Fleet fleet(sim, cfg);
  fleet.start();
  sim.run_until(cell.duration);
  fleet.stop();

  const FleetStats& st = fleet.stats();
  ARNET_CHECK(st.consistent(), "capacity cell ", cell.name, ": ", st.frames, " frames, ",
              st.results, " results, ", st.deadline_misses, " misses");
  CellResult r;
  static_cast<sim::LatencySummary&>(r) = st.summary();
  r.name = cell.name;
  r.arrivals = st.arrivals;
  r.admitted = st.admitted;
  r.downgraded = st.downgraded;
  r.rejected = st.rejected;
  r.frames = st.frames;
  r.results = st.results;
  r.misses = st.deadline_misses;
  r.miss_rate = st.miss_rate();
  r.sim_seconds = sim::to_seconds(cell.duration);
  r.served_fps = r.sim_seconds > 0 ? static_cast<double>(st.results) / r.sim_seconds : 0.0;
  r.servers_final = fleet.active_servers();
  r.sim_events = static_cast<std::int64_t>(sim.events_executed());

  obs::MetricsRegistry* metrics = telemetry.metrics;
  if (telemetry.slo && metrics) telemetry.slo->publish(*metrics);
  if (metrics) {
    metrics->gauge("cell.offered_users", cell.name).set(cell.offered_users);
    metrics->gauge("cell.p50_ms", cell.name).set(r.p50_ms);
    metrics->gauge("cell.p99_ms", cell.name).set(r.p99_ms);
    metrics->gauge("cell.miss_rate", cell.name).set(r.miss_rate);
    metrics->gauge("cell.served_fps", cell.name).set(r.served_fps);
    metrics->gauge("cell.rejected", cell.name).set(static_cast<double>(r.rejected));
    metrics->gauge("cell.servers_final", cell.name)
        .set(static_cast<double>(r.servers_final));
  }
  return r;
}

}  // namespace arnet::fleet
