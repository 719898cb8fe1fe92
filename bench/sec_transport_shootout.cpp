// Transport shootout: ARTP vs TCP (Reno/CUBIC/BBR) vs a paced QUIC-lite
// stack, each carrying a 30 fps AR camera-frame uplink across WiFi, everyday
// LTE, and 5G NR (with mmWave blockage bursts). Scored the way an AR app
// experiences transport quality: what fraction of frames arrive whole before
// their deadline, how late the tail is, and what goodput survives (paper §V
// "TCP is the wrong tool", §VI ARTP; arvr-sim methodology for the
// on-time/late/incomplete split).
//
// Each cell is an independent world on an ExperimentRunner pool, seeded
// from the root seed by run index, so output is byte-identical at any
// --jobs. main() declares the flags; runner::write_sweep writes the
// artifacts (runner/sweep.hpp lists them) next to this console report.
// With --slo yes each cell also runs the full telemetry stack
// (fingerprint-neutral observers).
#include <iostream>
#include <string>
#include <vector>

#include "arnet/core/shootout.hpp"
#include "arnet/core/table.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/runner/sweep.hpp"

using namespace arnet;

namespace {

std::vector<core::ShootoutCellConfig> build_cells(bool smoke) {
  std::vector<core::ShootoutCellConfig> cells;
  const sim::Time d = smoke ? sim::seconds(6) : sim::seconds(20);
  for (core::ShootoutNetwork n : {core::ShootoutNetwork::kWifi, core::ShootoutNetwork::kLte,
                                  core::ShootoutNetwork::kNr5g}) {
    for (core::ShootoutTransport t :
         {core::ShootoutTransport::kArtp, core::ShootoutTransport::kReno,
          core::ShootoutTransport::kCubic, core::ShootoutTransport::kBbr,
          core::ShootoutTransport::kQuicLite}) {
      core::ShootoutCellConfig c;
      c.transport = t;
      c.network = n;
      c.duration = d;
      cells.push_back(c);
    }
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kSmoke, runner::kSlo, runner::kOutDir,
                                               runner::kSeed, runner::kJobs});
  const bool smoke = flags.yes("--smoke"), slo = flags.yes("--slo");
  runner::ExperimentRunner pool({.jobs = flags.jobs(), .root_seed = flags.seed()});
  runner::ReportTee tee(flags.str("--out-dir"), "sec_transport_shootout_report.txt");

  const std::vector<core::ShootoutCellConfig> cells = build_cells(smoke);
  std::cout << "=== transport shootout: frame deadlines over WiFi / LTE / 5G NR ===\n"
            << cells.size() << " cells, " << pool.jobs() << " jobs, root seed "
            << pool.root_seed() << (smoke ? " (smoke)" : "") << "\n\n";

  std::vector<core::ShootoutCellResult> results(cells.size());
  runner::SweepTelemetry telemetry(cells.size());
  pool.for_each(cells.size(), [&](runner::RunContext& ctx) {
    const std::size_t i = ctx.run_index;
    trace::Telemetry t;
    if (slo) {
      slo::SloConfig lc;
      lc.entity = cells[i].name();
      lc.deadline_ms = sim::to_milliseconds(core::kShootoutDeadline);
      t = telemetry.attach(i, ctx.seed, lc);
    }
    results[i] = core::run_shootout_cell(cells[i], ctx.seed, t);
  });

  core::TablePrinter t({"cell", "frames", "on-time", "late", "incomp", "hit %", "p50",
                        "p99", "max", "goodput Mb/s"});
  for (const core::ShootoutCellResult& r : results) {
    t.add_row({r.name, std::to_string(r.frames_sent), std::to_string(r.frames_on_time),
               std::to_string(r.frames_late), std::to_string(r.frames_incomplete),
               core::fmt(r.hit_ratio * 100, 1), core::fmt_ms(r.p50_ms, 1),
               core::fmt_ms(r.p99_ms, 1), core::fmt_ms(r.max_ms, 1),
               core::fmt(r.goodput_mbps, 2)});
  }
  t.print(std::cout);

  // Per-network winner by deadline-hit ratio — the number an AR session
  // scheduler would pick its transport by.
  std::cout << "\nbest transport per network (by deadline-hit ratio):\n";
  for (core::ShootoutNetwork n : {core::ShootoutNetwork::kWifi, core::ShootoutNetwork::kLte,
                                  core::ShootoutNetwork::kNr5g}) {
    const core::ShootoutCellResult* best = nullptr;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].network != n) continue;
      if (!best || results[i].hit_ratio > best->hit_ratio) best = &results[i];
    }
    if (best) {
      std::cout << "  " << to_string(n) << ": " << best->name << " ("
                << core::fmt(best->hit_ratio * 100, 1) << "% on time, p99 "
                << core::fmt_ms(best->p99_ms, 1) << ")\n";
    }
  }

  runner::SweepArtifacts out{.suite = "sec_transport_shootout", .out_dir = flags.str("--out-dir"),
                             .telemetry = slo ? &telemetry : nullptr};
  for (const core::ShootoutCellResult& r : results) {
    runner::BenchRow row =
        runner::sim_row(r.name, r, r.sim_seconds, r.frames_sent, 0.0, r.sim_events);
    row.ops_per_sec = static_cast<double>(r.frames_sent) / row.wall_time_s;
    row.extra = {{"frames_on_time", static_cast<double>(r.frames_on_time)},
                 {"frames_late", static_cast<double>(r.frames_late)},
                 {"frames_incomplete", static_cast<double>(r.frames_incomplete)},
                 {"hit_ratio", r.hit_ratio},
                 {"goodput_mbps", r.goodput_mbps}};
    out.rows.push_back(std::move(row));
  }
  return runner::write_sweep(out);
}
