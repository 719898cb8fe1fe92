// Quickstart: offload a mobile AR workload to an edge server over ARTP.
//
// Builds the smallest useful deployment — a smartphone, a WiFi hop, an edge
// server — runs a CloudRidAR-style offloading session (features extracted
// on-device, matched on the server), and prints the end-to-end numbers that
// matter for AR: motion-to-photon latency and the 75 ms deadline-miss rate.
//
//   $ ./quickstart
#include <iostream>

#include "arnet/core/table.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"

using namespace arnet;

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  // 1. A simulator and a topology: phone <-> AP <-> edge server.
  sim::Simulator sim;
  net::Network net(sim, /*seed=*/1);
  net::NodeId phone = net.add_node("phone");
  net::NodeId ap = net.add_node("ap");
  net::NodeId edge = net.add_node("edge-server");
  net.connect(phone, ap, /*rate=*/25e6, /*delay=*/sim::milliseconds(3));
  net.connect(ap, edge, 1e9, sim::milliseconds(2));

  // 2. An offloading session: device class, strategy, video feed.
  mar::OffloadConfig cfg;
  cfg.strategy = mar::OffloadStrategy::kCloudRidAR;  // upload features, not pixels
  cfg.device = mar::DeviceClass::kSmartphone;
  cfg.video = mar::VideoModel::hd720p30();
  cfg.deadline = sim::milliseconds(75);

  mar::OffloadSession session(net, phone, edge, cfg);
  session.start();

  // 3. Run 30 simulated seconds and read the stats.
  sim.run_until(sim::seconds(30));
  session.stop();

  const mar::OffloadStats& st = session.stats();
  const core::FrameCells cells = core::fmt_frames(st, 2);
  std::cout << "Offloaded " << st.offloaded_frames << " of " << st.frames
            << " frames over " << core::fmt(st.uplink_bytes / 1e6, 1) << " MB of uplink\n"
            << "Motion-to-photon latency: median " << cells.median << ", p95 " << cells.p95 << "\n"
            << "75 ms deadline misses: " << cells.miss << "\n"
            << "Device compute energy: " << core::fmt(st.energy_j, 1) << " J\n";

  // The same phone without offloading, for contrast.
  sim::Simulator sim2;
  net::Network net2(sim2, 1);
  net::NodeId p2 = net2.add_node("phone");
  net::NodeId e2 = net2.add_node("unused");
  net2.connect(p2, e2, 1e6, sim::milliseconds(1));
  cfg.strategy = mar::OffloadStrategy::kLocalOnly;
  mar::OffloadSession local(net2, p2, e2, cfg);
  local.start();
  sim2.run_until(sim::seconds(30));
  local.stop();
  const core::FrameCells local_cells = core::fmt_frames(local.stats(), 2);
  std::cout << "\nFor contrast, fully local on the same phone: median " << local_cells.median
            << ", misses " << local_cells.miss << ", energy "
            << core::fmt(local.stats().energy_j, 1) << " J\n";
  return 0;
}
