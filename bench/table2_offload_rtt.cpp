// Reproduces Table II: average link RTT of the CloudRidAR platform in four
// scenarios (local WiFi server, cloud via campus WiFi, university server
// behind middleboxes, cloud via LTE) — on the emulated topologies of
// core/scenarios.cpp. Extended with a full CloudRidAR offloading session per
// scenario: motion-to-photon latency and the 75 ms deadline-miss rate, which
// is the consequence the paper draws from the RTTs.
#include <iostream>
#include <optional>

#include "arnet/core/qoe.hpp"
#include "arnet/core/scenarios.hpp"
#include "arnet/core/table.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/trace/export.hpp"

using namespace arnet;

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kOutDir});
  runner::ReportTee tee(flags.str("--out-dir"), "table2_offload_rtt_report.txt");
  std::cout << "=== Table II: CloudRidAR link RTT across deployments ===\n";
  core::TablePrinter t({"Platform/Connection", "paper RTT", "measured RTT (median)",
                        "p95", "loss"});

  const core::Table2Setup setups[] = {
      core::Table2Setup::kLocalServerWifi,
      core::Table2Setup::kCloudServerWifi,
      core::Table2Setup::kUniversityServerWifi,
      core::Table2Setup::kCloudServerLte,
  };

  for (auto setup : setups) {
    auto sc = core::make_table2_scenario(setup, 42);
    sc.start_dynamics();
    auto ping = core::run_ping(sc, 200, sim::milliseconds(50));
    double loss = 1.0 - static_cast<double>(ping.received) / ping.sent;
    t.add_row({core::to_string(setup), core::fmt_ms(sc.paper_rtt_ms, 0),
               core::fmt_ms(ping.rtt_ms.median()), core::fmt_ms(ping.rtt_ms.percentile(0.95)),
               core::fmt(loss * 100, 1) + " %"});
  }
  t.print(std::cout);

  std::cout << "\n=== Extension: CloudRidAR offloading session per deployment ===\n";
  core::TablePrinter t2({"Platform/Connection", "median m2p", "p95 m2p", "75 ms miss rate",
                         "frames/s served", "QoE (MOS)"});
  for (auto setup : setups) {
    auto sc = core::make_table2_scenario(setup, 43);
    sc.start_dynamics();
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    cfg.device = mar::DeviceClass::kSmartphone;
    mar::OffloadSession session(*sc.net, sc.client, sc.server, cfg);
    session.start();
    sc.sim->run_until(sim::seconds(20));
    session.stop();
    const auto& st = session.stats();
    double mos = core::qoe_mos(core::qoe_inputs(st, 20.0));
    const core::FrameCells cells = core::fmt_frames(st);
    t2.add_row({core::to_string(setup), cells.median, cells.p95, cells.miss,
                core::fmt(static_cast<double>(st.results) / 20.0, 1),
                core::fmt(mos, 2) + " (" + core::qoe_grade(mos) + ")"});
  }
  t2.print(std::cout);
  std::cout << "\nShape check vs the paper: 8 < 36 < 72 < 120 ms ordering, with the\n"
               "university's middleboxes (not distance) doubling the cloud RTT, and\n"
               "LTE unusable for the 75 ms AR budget.\n";

  // ---- Where does one frame's RTT actually go? ---------------------------
  // Trace a cloud-via-WiFi session and decompose one exemplar frame into the
  // stages the paper's RTT argument is about: device-side staging, uplink
  // (propagation + queueing), server compute, downlink. The stages tile the
  // frame exactly, so the column sum IS the reported motion-to-photon time.
  std::cout << "\n=== Per-stage breakdown of one traced frame (cloud via WiFi) ===\n";
  {
    auto sc = core::make_table2_scenario(core::Table2Setup::kCloudServerWifi, 43);
    sc.start_dynamics();
    trace::Tracer tracer;
    sc.net->attach_trace(tracer);
    mar::OffloadConfig cfg;
    cfg.strategy = mar::OffloadStrategy::kCloudRidAR;
    cfg.device = mar::DeviceClass::kSmartphone;
    cfg.tracer = &tracer;
    mar::OffloadSession session(*sc.net, sc.client, sc.server, cfg);
    // Exemplar = the last frame to complete: its events are the newest in
    // every ring, so none of its anchors have been overwritten by the
    // overwrite-oldest policy (an early frame's timeline would not survive a
    // multi-second run).
    std::optional<std::uint32_t> exemplar;
    session.set_result_callback(
        [&](std::uint32_t frame, sim::Time) { exemplar = frame; });
    session.start();
    sc.sim->run_until(sim::seconds(5));
    session.stop();
    if (!exemplar) {
      std::cerr << "no frame completed in the traced run\n";
      return 1;
    }
    auto bd = trace::frame_breakdown(tracer, session.frame_trace(*exemplar).trace_id);
    if (!bd.valid) {
      std::cerr << "traced frame " << *exemplar << " is missing anchor events\n";
      return 1;
    }
    core::TablePrinter t3({"Frame stage", "time"});
    t3.add_row({"device staging (capture -> first tx)", core::fmt_ms(sim::to_milliseconds(bd.queue_ns()))});
    t3.add_row({"uplink (first tx -> server delivery)", core::fmt_ms(sim::to_milliseconds(bd.uplink_ns()))});
    t3.add_row({"server compute", core::fmt_ms(sim::to_milliseconds(bd.compute_ns()))});
    t3.add_row({"downlink (result -> device)", core::fmt_ms(sim::to_milliseconds(bd.downlink_ns()))});
    t3.add_row({"total motion-to-photon", core::fmt_ms(sim::to_milliseconds(bd.total_ns()))});
    t3.print(std::cout);
    std::cout << "(frame " << bd.frame_id << (bd.missed ? ", missed its deadline" : "")
              << "; stages tile the frame span, so they sum exactly to the total)\n";
  }
  return 0;
}
