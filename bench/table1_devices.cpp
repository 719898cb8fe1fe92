// Reproduces Table I: the basic characteristics of the devices in a MAR
// ecosystem — extended with the quantitative consequence the paper draws
// from it: which devices can run the vision workload locally within the
// 75 ms budget, and what offloading does to their battery life.
#include <iostream>

#include "arnet/core/table.hpp"
#include "arnet/mar/cost_model.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/runner/experiment.hpp"

using namespace arnet;

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kOutDir});
  runner::ReportTee tee(flags.str("--out-dir"), "table1_devices_report.txt");
  std::cout << "=== Table I: devices participating in a MAR ecosystem ===\n";
  core::TablePrinter t({"Platform", "Computing power", "Storage", "Battery life",
                        "Network access", "Portability"});
  for (const auto& d : mar::all_device_profiles()) {
    t.add_row({d.name, d.computing_power, d.storage, d.battery_life, d.network_access,
               d.portability});
  }
  t.print(std::cout);

  std::cout << "\n=== Derived: per-frame vision cost vs the 75 ms budget ===\n";
  mar::AppParams app;  // 30 FPS, desktop-reference 4 ms/frame, 75 ms budget
  mar::LinkParams edge_link{30e6, sim::milliseconds(8)};
  const auto& cloud = mar::device_profile(mar::DeviceClass::kCloud);

  core::TablePrinter t2({"Platform", "P_local", "meets 75 ms?", "P_offload (edge link)",
                         "meets 75 ms?", "battery @ local vision"});
  for (const auto& d : mar::all_device_profiles()) {
    sim::Time local = mar::p_local(d, app);
    sim::Time off = mar::p_offloading(d, cloud, app, edge_link, /*y=*/0.0);
    // Battery: continuous local vision at fps draws active_power during
    // compute; duty cycle = min(1, compute / frame interval).
    std::string battery = "mains";
    if (d.battery_wh > 0) {
      double duty =
          std::min(1.0, sim::to_seconds(local) * app.fps);
      double hours = d.battery_wh / (d.active_power_w * duty + 0.5);
      battery = core::fmt(hours, 1) + " h";
    }
    t2.add_row({d.name, core::fmt_ms(sim::to_milliseconds(local)),
                mar::meets_deadline(local, app) ? "yes" : "NO",
                core::fmt_ms(sim::to_milliseconds(off)),
                mar::meets_deadline(off, app) ? "yes" : "NO", battery});
  }
  t2.print(std::cout);
  std::cout << "\nReading: wearables cannot meet the budget locally (the paper's\n"
               "motivation for offloading); with an edge surrogate every class can.\n";
  return 0;
}
