// Multi-user capacity sweep over the fleet serving layer: offered sessions
// vs motion-to-photon p99, per balancer policy, batched vs unbatched
// execution, and autoscaling on/off. This is the experiment behind the
// paper's "how many MAR users can one edge deployment actually carry"
// question (§IV scale concerns, §VI-F provisioning).
//
// Each cell is an independent world on an ExperimentRunner pool, seeded
// from the root seed by run index, so output is byte-identical at any
// --jobs. main() declares the flags; runner::write_sweep writes the
// artifacts (runner/sweep.hpp lists them). With --slo yes each cell also
// runs the full telemetry stack (fingerprint-neutral observers).
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arnet/core/table.hpp"
#include "arnet/fleet/scenario.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"

using namespace arnet;

namespace {

struct CellKnobs {
  fleet::BalancerPolicy policy = fleet::BalancerPolicy::kLeastOutstanding;
  bool batched = true;
  bool autoscale = false;
  bool admit = false;
};

std::string mode_name(const CellKnobs& k) {
  return std::string(to_string(k.policy)) + "/batch=" + (k.batched ? "on" : "off") +
         "/as=" + (k.autoscale ? "on" : "off") + "/adm=" + (k.admit ? "on" : "off");
}

fleet::CellConfig make_cell(double users, const CellKnobs& k, sim::Time duration) {
  fleet::CellConfig c;
  std::ostringstream os;
  os << "u" << std::setw(3) << std::setfill('0') << static_cast<int>(users) << "/"
     << mode_name(k);
  c.name = os.str();
  c.offered_users = users;
  c.policy = k.policy;
  c.batched = k.batched;
  c.autoscale = k.autoscale;
  c.admit = k.admit;
  c.duration = duration;
  return c;
}

// Each mechanism gets its own cells. The capacity/policy/batching curves run
// open loop (admission off) so the knee measures the serving path; admission
// and autoscaling are then shown against that same offered load.
std::vector<fleet::CellConfig> build_cells(bool smoke) {
  std::vector<fleet::CellConfig> cells;
  using P = fleet::BalancerPolicy;
  if (smoke) {
    // CI-sized: one nominal cell plus the ~200-user overload point per
    // mechanism, 2 servers, short horizon.
    const sim::Time d = sim::seconds(10);
    cells.push_back(make_cell(50, {P::kLeastOutstanding, true, false, false}, d));
    cells.push_back(make_cell(200, {P::kLeastOutstanding, true, false, false}, d));
    cells.push_back(make_cell(200, {P::kLeastOutstanding, false, false, false}, d));
    cells.push_back(make_cell(200, {P::kLeastOutstanding, true, true, false}, d));
    cells.push_back(make_cell(200, {P::kLeastOutstanding, true, false, true}, d));
    return cells;
  }
  const double levels[] = {25, 50, 75, 100, 125, 150, 175, 200};
  const sim::Time d = sim::seconds(30);
  for (P policy : {P::kRoundRobin, P::kLeastOutstanding, P::kLatencyEwma}) {
    for (double u : levels) cells.push_back(make_cell(u, {policy, true, false, false}, d));
  }
  // Batching ablation: same curve without batch formation.
  for (double u : levels) {
    cells.push_back(make_cell(u, {P::kLeastOutstanding, false, false, false}, d));
  }
  // Autoscaler: overload levels where extra servers should absorb the knee.
  for (double u : {100.0, 150.0, 200.0}) {
    cells.push_back(make_cell(u, {P::kLeastOutstanding, true, true, false}, d));
  }
  // Admission control: same overload levels, fixed fleet; rejects/downgrades
  // should bound the served p99 near the budget instead of letting it run away.
  for (double u : {100.0, 150.0, 200.0}) {
    cells.push_back(make_cell(u, {P::kLeastOutstanding, true, false, true}, d));
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kSmoke, runner::kSlo, runner::kOutDir,
                                               runner::kSeed, runner::kJobs});
  const bool smoke = flags.yes("--smoke"), slo = flags.yes("--slo");
  runner::ExperimentRunner pool({.jobs = flags.jobs(), .root_seed = flags.seed()});

  const std::vector<fleet::CellConfig> cells = build_cells(smoke);
  std::cout << "=== fleet capacity sweep: users vs m2p latency ===\n"
            << cells.size() << " cells, " << pool.jobs() << " jobs, root seed "
            << pool.root_seed() << (smoke ? " (smoke)" : "") << "\n\n";

  // One world per cell; results and registries are indexed by run, so the
  // merge is in cell order no matter how workers interleave.
  std::vector<fleet::CellResult> results(cells.size());
  runner::SweepTelemetry telemetry(cells.size());
  obs::MetricsRegistry merged = pool.run_merged(cells.size(), [&](runner::RunContext& ctx) {
    const std::size_t i = ctx.run_index;
    trace::Telemetry t;
    if (slo) {
      slo::SloConfig lc;
      lc.entity = cells[i].name;
      t = telemetry.attach(i, ctx.seed, lc);
    }
    t.metrics = &ctx.metrics;
    results[i] = fleet::run_capacity_cell(cells[i], ctx.seed, t);
  });

  core::TablePrinter t({"cell", "admit", "downgrade", "reject", "frames", "p50",
                        "p99", "miss %", "served fps", "servers"});
  for (const fleet::CellResult& r : results) {
    t.add_row({r.name, std::to_string(r.admitted), std::to_string(r.downgraded),
               std::to_string(r.rejected), std::to_string(r.results),
               core::fmt_ms(r.p50_ms, 1), core::fmt_ms(r.p99_ms, 1),
               core::fmt(r.miss_rate * 100, 1), core::fmt(r.served_fps, 0),
               std::to_string(r.servers_final)});
  }
  t.print(std::cout);

  // Capacity knee per serving mode: the largest offered level whose p99 still
  // meets the 75 ms motion-to-photon budget.
  std::cout << "\ncapacity at p99 <= 75 ms:\n";
  std::string mode;
  double knee = 0, served = 0;
  auto flush = [&] {
    if (!mode.empty()) {
      std::cout << "  " << mode << ": " << core::fmt(knee, 0) << " users ("
                << core::fmt(served, 0) << " fps served)\n";
    }
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string m = mode_name(
        {cells[i].policy, cells[i].batched, cells[i].autoscale, cells[i].admit});
    if (m != mode) {
      flush();
      mode = m;
      knee = served = 0;
    }
    if (results[i].p99_ms <= 75.0 && cells[i].offered_users > knee) {
      knee = cells[i].offered_users;
      served = results[i].served_fps;
    }
  }
  flush();

  runner::SweepArtifacts out{.suite = "scale_fleet", .out_dir = flags.str("--out-dir"),
                             .metrics = &merged, .telemetry = slo ? &telemetry : nullptr};
  for (const fleet::CellResult& r : results) {
    out.rows.push_back(
        runner::sim_row(r.name, r, r.sim_seconds, r.results, r.served_fps, r.sim_events));
  }
  return runner::write_sweep(out);
}
