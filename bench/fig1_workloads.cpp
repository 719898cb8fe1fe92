// Reproduces Figure 1 computationally: the paper's four MAR use cases
// (orientation, virtual memorial, video gaming, art) as workload profiles,
// "each of them with specific requirements". For each: the §III-B cost
// model verdict, the traffic it generates, and a measured offloading
// session on an edge deployment with its QoE.
#include <iostream>

#include "arnet/core/qoe.hpp"
#include "arnet/core/table.hpp"
#include "arnet/mar/workloads.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"

using namespace arnet;
using sim::milliseconds;
using sim::seconds;

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  std::cout << "=== Figure 1: the usages of MAR, quantified ===\n\n";

  const mar::MarUseCase cases[] = {mar::MarUseCase::kOrientation,
                                   mar::MarUseCase::kVirtualMemorial,
                                   mar::MarUseCase::kGaming, mar::MarUseCase::kArt};

  std::cout << "--- Requirements each use case places on the network ---\n";
  core::TablePrinter t1({"Use case (Fig. 1 example)", "video feed", "compressed",
                         "deadline", "DB appetite", "strategy"});
  for (auto uc : cases) {
    const auto& w = mar::workload(uc);
    t1.add_row({w.name + " (" + w.figure_example + ")",
                std::to_string(w.video.width) + "x" + std::to_string(w.video.height) + "@" +
                    std::to_string(w.video.fps),
                core::fmt_mbps(w.video.compressed_bps(), 1),
                core::fmt_ms(sim::to_milliseconds(w.deadline), 0),
                core::fmt(w.db_request_hz * w.db_object_bytes * 8 / 1e6, 2) + " Mb/s",
                mar::to_string(w.recommended)});
  }
  t1.print(std::cout);

  std::cout << "\n--- Cost-model verdict per device (P_local vs deadline) ---\n";
  core::TablePrinter t2({"Use case", "glasses", "smartphone", "edge offload"});
  mar::LinkParams edge{30e6, milliseconds(8)};
  for (auto uc : cases) {
    const auto& w = mar::workload(uc);
    auto app = w.app_params();
    auto verdict = [&](const mar::DeviceProfile& d) {
      sim::Time local = mar::p_local(d, app);
      return std::string(mar::meets_deadline(local, app) ? "ok (" : "NO (") +
             core::fmt_ms(sim::to_milliseconds(local), 0) + ")";
    };
    sim::Time off = mar::p_offloading(mar::device_profile(mar::DeviceClass::kSmartphone),
                                      mar::device_profile(mar::DeviceClass::kCloud), app, edge,
                                      0.75);
    t2.add_row({w.name, verdict(mar::device_profile(mar::DeviceClass::kSmartGlasses)),
                verdict(mar::device_profile(mar::DeviceClass::kSmartphone)),
                std::string(mar::meets_deadline(off, app) ? "ok (" : "NO (") +
                    core::fmt_ms(sim::to_milliseconds(off), 0) + ")"});
  }
  t2.print(std::cout);

  std::cout << "\n--- Measured: 30 s session per use case on an edge deployment ---\n";
  core::TablePrinter t3({"Use case", "uplink MB", "median m2p", "miss rate", "QoE"});
  for (auto uc : cases) {
    const auto& w = mar::workload(uc);
    sim::Simulator sim;
    net::Network net(sim, 91);
    auto phone = net.add_node("device");
    auto ap = net.add_node("ap");
    auto edge_dc = net.add_node("edge");
    net.connect(phone, ap, 25e6, milliseconds(3), 300);
    net.connect(ap, edge_dc, 1e9, milliseconds(2), 500);
    net.compute_routes();
    auto cfg = w.offload_config();
    cfg.device = mar::DeviceClass::kSmartphone;
    mar::OffloadSession session(net, phone, edge_dc, cfg);
    session.start();
    sim.run_until(seconds(30));
    session.stop();
    const auto& st = session.stats();
    double mos = core::qoe_mos(core::qoe_inputs(st, 30.0, w.video.fps));
    const core::FrameCells cells = core::fmt_frames(st);
    t3.add_row({w.name, core::fmt(st.uplink_bytes / 1e6, 1), cells.median, cells.miss,
                core::fmt(mos, 2) + " (" + core::qoe_grade(mos) + ")"});
  }
  t3.print(std::cout);

  std::cout << "\nReading: the four Figure 1 usages span an order of magnitude in\n"
               "bandwidth and a 4x spread in latency budgets — the diversity that\n"
               "motivates classful, priority-aware transport (SVI-A) rather than a\n"
               "single best-effort pipe.\n";
  return 0;
}
