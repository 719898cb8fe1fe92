// Reproduces Figure 2: the 802.11 performance anomaly (Heusse et al. 2003).
// Two stations saturate an AP's uplink; station B's PHY rate degrades as it
// moves away (54 -> 18 -> 6 Mb/s zones in the figure). DCF's equal
// transmission opportunities drag station A down to B's level.
#include <chrono>
#include <functional>
#include <iostream>
#include <optional>
#include <vector>

#include "arnet/core/qoe.hpp"
#include "arnet/core/table.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/trace/export.hpp"
#include "arnet/trace/flight.hpp"
#include "arnet/trace/pcap.hpp"
#include "arnet/trace/profiler.hpp"
#include "arnet/wireless/wifi.hpp"

using namespace arnet;

namespace {

struct CellRun {
  double a_mbps = 0;
  double b_mbps = 0;
};

CellRun run_cell(double phy_a, double phy_b, sim::Time dur) {
  sim::Simulator sim;
  wireless::WifiCell cell(sim, sim::Rng(1), wireless::WifiCell::Config{});
  auto a = cell.add_station(phy_a, "A");
  auto b = cell.add_station(phy_b, "B");
  std::int64_t bytes_a = 0, bytes_b = 0;
  auto frame = [] {
    net::Packet p;
    p.size_bytes = 1500;
    return p;
  };
  cell.set_sink(wireless::WifiCell::kApId, [&](net::Packet&& p, std::uint32_t from) {
    (from == a ? bytes_a : bytes_b) += p.size_bytes;
    cell.send(from, wireless::WifiCell::kApId, frame());
  });
  for (int i = 0; i < 4; ++i) {
    cell.send(a, wireless::WifiCell::kApId, frame());
    cell.send(b, wireless::WifiCell::kApId, frame());
  }
  sim.run_until(dur);
  double secs = sim::to_seconds(dur);
  return {bytes_a * 8.0 / secs / 1e6, bytes_b * 8.0 / secs / 1e6};
}

// Serial exemplar run for the observability artifacts (--trace/--pcap/
// --flight/--profile): one simulator hosts both the anomalous DCF cell (user
// at 54 Mb/s, neighbor at 6 Mb/s, both saturating) and the offloading
// network the user's degraded share feeds, so one timeline carries wifi
// contention, link queues, ARTP chunks and MAR frame spans end to end.
void run_traced_exemplar(const std::string& trace_path, const std::string& pcap_path,
                         const std::string& flight_path, bool profile) {
  auto share = run_cell(54e6, 6e6, sim::seconds(5));
  double uplink_bps = std::max(share.a_mbps * 1e6, 64e3);

  sim::Simulator sim;
  trace::Tracer tracer;
  tracer.set_wire_capture(!pcap_path.empty());
  // Wall clock injected from the driver: bench code may consult the host
  // clock; src/ never does (determinism lint).
  trace::SimProfiler prof(sim, [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  });
  tracer.set_profiler(&prof);

  wireless::WifiCell cell(sim, sim::Rng(1), wireless::WifiCell::Config{});
  auto user_sta = cell.add_station(54e6, "user");
  auto neighbor = cell.add_station(6e6, "neighbor");
  cell.attach({.tracer = &tracer}, "wifi:cell");
  auto frame = [] {
    net::Packet p;
    p.size_bytes = 1500;
    return p;
  };
  cell.set_sink(wireless::WifiCell::kApId, [&](net::Packet&& p, std::uint32_t from) {
    (void)p;
    cell.send(from, wireless::WifiCell::kApId, frame());
  });
  cell.send(user_sta, wireless::WifiCell::kApId, frame());
  cell.send(neighbor, wireless::WifiCell::kApId, frame());

  net::Network net(sim, 2);
  auto user = net.add_node("user");
  auto ap = net.add_node("ap");
  auto edge = net.add_node("edge");
  net.connect(user, ap, uplink_bps, sim::milliseconds(3), 300);
  net.connect(ap, edge, 1e9, sim::milliseconds(2), 500);
  net.compute_routes();
  net.attach_trace(tracer);

  mar::OffloadConfig cfg;
  cfg.strategy = mar::OffloadStrategy::kFullOffload;
  cfg.device = mar::DeviceClass::kSmartphone;
  cfg.tracer = &tracer;
  std::optional<trace::FlightRecorder> flight;
  if (!flight_path.empty()) {
    flight.emplace(tracer, flight_path);
    cfg.flight = &*flight;
  }
  mar::OffloadSession session(net, user, edge, cfg);
  session.start();
  sim.run_until(sim::seconds(2));
  session.stop();

  std::cout << "\n--- Traced exemplar run (neighbor at 6 Mb/s, 2 s) ---\n"
            << "recorded " << tracer.total_recorded() << " events across "
            << tracer.entity_count() << " entities (" << tracer.total_overflowed()
            << " overflowed oldest-first)\n";
  if (!trace_path.empty() && trace::write_perfetto_json_file(tracer, trace_path)) {
    std::cout << "wrote Perfetto trace: " << trace_path << " (load in ui.perfetto.dev)\n";
  }
  if (!pcap_path.empty() && trace::write_pcapng_file(tracer, pcap_path)) {
    std::cout << "wrote pcap-ng capture: " << pcap_path << "\n";
  }
  if (flight && flight->dumped()) {
    std::cout << "flight recorder dumped: " << flight->path() << "\n";
  }
  if (profile) {
    std::cout << "\nPer-site time attribution (sim + wall):\n";
    prof.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(
      argc, argv,
      {runner::kJobs, runner::kTrace, runner::kPcap,
       {"--flight", "", "arm a flight recorder that dumps here on the first deadline miss"},
       {"--profile", "no", "yes|no: print the traced run's per-site time attribution"}});
  runner::ExperimentRunner pool({.jobs = flags.jobs()});
  const bool profile = flags.yes("--profile");

  std::cout << "=== Figure 2: the 802.11 performance anomaly ===\n"
            << "Station A stays next to the AP at 54 Mb/s; station B walks out\n"
            << "through the figure's rate zones. Both stations saturate uplink.\n\n";

  core::TablePrinter t({"B's PHY zone", "A throughput", "B throughput", "cell total",
                        "A's loss vs solo"});
  // Fan the solo reference and the four rate zones out together (index 0 is
  // the solo cell, 1.. the zones).
  const double zones[] = {54e6, 18e6, 6e6, 1e6};
  const std::vector<CellRun> cells = pool.map<CellRun>(
      1 + std::size(zones), [&zones](runner::RunContext& ctx) {
        double phy_b = ctx.run_index == 0 ? 54e6 : zones[ctx.run_index - 1];
        return run_cell(54e6, phy_b, sim::seconds(5));
      });
  double solo_total = cells[0].a_mbps + cells[0].b_mbps;

  for (std::size_t i = 0; i < std::size(zones); ++i) {
    const CellRun& r = cells[i + 1];
    t.add_row({core::fmt_mbps(zones[i], 0), core::fmt(r.a_mbps, 2) + " Mb/s",
               core::fmt(r.b_mbps, 2) + " Mb/s", core::fmt(r.a_mbps + r.b_mbps, 2) + " Mb/s",
               core::fmt((1.0 - r.a_mbps / (solo_total / 2)) * 100, 0) + " %"});
  }
  t.print(std::cout);

  std::cout << "\nShape check vs the paper: when B is in the 18 Mb/s (or worse) zone,\n"
               "A's throughput falls to approximately B's, because B occupies the\n"
               "channel longer to move the same bytes (equal DCF opportunities).\n";

  // ---- Consequence for a MAR user sharing the cell. ----------------------
  std::cout << "\n--- What the anomaly does to a MAR session (user = station A) ---\n";
  core::TablePrinter t2({"Cell condition", "effective uplink", "median m2p",
                         "75 ms miss", "QoE"});
  const double neighbor_phys[] = {54e6, 6e6, 1e6};
  struct MarRow {
    double uplink_bps = 0;
    core::FrameCells frames;
    double mos = 0;
  };
  const std::vector<MarRow> mar_rows = pool.map<MarRow>(
      std::size(neighbor_phys), [&neighbor_phys](runner::RunContext& ctx) {
        // The user's effective share, measured on the DCF cell above, drives
        // the access-link capacity of an offloading scenario.
        double phy_b = neighbor_phys[ctx.run_index];
        auto share = run_cell(54e6, phy_b, sim::seconds(5));
        double uplink_bps = std::max(share.a_mbps * 1e6, 64e3);
        sim::Simulator sim;
        net::Network net(sim, 2);
        auto user = net.add_node("user");
        auto ap = net.add_node("ap");
        auto edge = net.add_node("edge");
        net.connect(user, ap, uplink_bps, sim::milliseconds(3), 300);
        net.connect(ap, edge, 1e9, sim::milliseconds(2), 500);
        net.compute_routes();
        mar::OffloadConfig cfg;
        cfg.strategy = mar::OffloadStrategy::kFullOffload;
        cfg.device = mar::DeviceClass::kSmartphone;
        mar::OffloadSession session(net, user, edge, cfg);
        session.start();
        sim.run_until(sim::seconds(20));
        session.stop();
        const auto& st = session.stats();
        return MarRow{uplink_bps, core::fmt_frames(st), core::qoe_mos(core::qoe_inputs(st, 20.0))};
      });
  for (std::size_t i = 0; i < std::size(neighbor_phys); ++i) {
    const MarRow& r = mar_rows[i];
    t2.add_row({"neighbor at " + core::fmt_mbps(neighbor_phys[i], 0),
                core::fmt_mbps(r.uplink_bps, 1), r.frames.median, r.frames.miss,
                core::fmt(r.mos, 2) + " (" + core::qoe_grade(r.mos) + ")"});
  }
  t2.print(std::cout);
  std::cout << "\nOne far-away neighbor is enough to push the MAR user's effective\n"
               "uplink below the ~4.4 Mb/s the 720p feed needs — the anomaly turns\n"
               "a healthy cell into an unusable one for offloading.\n";

  const std::string trace_path = flags.str("--trace"), pcap_path = flags.str("--pcap"),
                    flight_path = flags.str("--flight");
  if (!trace_path.empty() || !pcap_path.empty() || !flight_path.empty() || profile) {
    run_traced_exemplar(trace_path, pcap_path, flight_path, profile);
  }
  return 0;
}
