// Reproduces Figure 5: approaches to distributing MAR computation among
// resources. A pair of smart glasses offloads two operation kinds:
//   - latency-critical ops (e.g. feature extraction assist): small payloads
//     with a hard interactive budget;
//   - heavy ops (e.g. full recognition): larger payloads, tolerant.
// Four setups, as in the figure:
//   (a) multipath to multiple servers (WiFi->university, LTE->cloud),
//   (b) home WiFi D2D to a smartphone + cloud for the heavy part,
//   (c) LTE Direct to a nearby phone + LTE to the cloud,
//   (d) WiFi Direct to a nearby phone + LTE to the cloud.
#include <iostream>
#include <memory>

#include "arnet/core/table.hpp"
#include "arnet/mar/device.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/wireless/cellular.hpp"
#include "arnet/wireless/d2d.hpp"

using namespace arnet;
using net::AppData;
using net::Priority;
using net::TrafficClass;
using sim::milliseconds;
using sim::seconds;

namespace {

/// One offloading lane: glasses -> helper/server, measuring op latency
/// including the processor's compute time.
struct Lane {
  std::unique_ptr<transport::ArtpReceiver> rx;
  std::unique_ptr<transport::ArtpSender> tx;
  sim::Samples latency_ms;

  Lane(net::Network& net, net::NodeId from, net::NodeId to, net::Port port,
       const mar::DeviceProfile& processor, sim::Time reference_compute) {
    rx = std::make_unique<transport::ArtpReceiver>(net, to, port);
    sim::Time compute = mar::scaled_cost(processor, reference_compute);
    rx->set_message_callback([this, compute](const transport::ArtpDelivery& d) {
      if (!d.complete) return;
      latency_ms.add(sim::to_milliseconds(d.latency() + compute));
    });
    tx = std::make_unique<transport::ArtpSender>(net, from, static_cast<net::Port>(port + 1000),
                                                 to, port, port, transport::ArtpSenderConfig{});
  }

  void offer(sim::Simulator& sim, int count, sim::Time gap, std::int64_t bytes, bool critical) {
    for (int i = 0; i < count; ++i) {
      sim.at(gap * i, [this, bytes, critical] {
        transport::ArtpMessageSpec m;
        m.bytes = bytes;
        m.tclass = critical ? TrafficClass::kCriticalData : TrafficClass::kBestEffortLossRecovery;
        m.priority = critical ? Priority::kHighest : Priority::kMediumNoDrop;
        m.app = critical ? AppData::kFeaturePayload : AppData::kVideoReferenceFrame;
        tx->send_message(m);
      });
    }
  }
};

struct SetupResult {
  std::string name;
  std::string fast_processor;
  double fast_median_ms;
  std::string heavy_processor;
  double heavy_median_ms;
};

constexpr int kFastOps = 300;      // 30 Hz for 10 s
constexpr int kHeavyOps = 100;     // 10 Hz for 10 s
constexpr std::int64_t kFastBytes = 2'000;
constexpr std::int64_t kHeavyBytes = 20'000;
const sim::Time kFastCompute = milliseconds(2);   // desktop-reference
const sim::Time kHeavyCompute = milliseconds(5);

SetupResult run_setup(char which) {
  sim::Simulator sim;
  net::Network net(sim, 99);
  auto glasses = net.add_node("glasses");
  const auto& phone = mar::device_profile(mar::DeviceClass::kSmartphone);
  const auto& server = mar::device_profile(mar::DeviceClass::kDesktop);
  const auto& cloud = mar::device_profile(mar::DeviceClass::kCloud);
  std::vector<std::unique_ptr<wireless::CellularModulator>> mods;

  std::unique_ptr<Lane> fast, heavy;
  SetupResult r;

  switch (which) {
    case 'a': {
      // Multipath multi-server: WiFi to the university server (low RTT),
      // LTE to the cloud for heavy work.
      r.name = "(a) multipath, multiple servers";
      auto ap = net.add_node("ap");
      auto univ = net.add_node("univ-server");
      auto enb = net.add_node("enb");
      auto cloud_n = net.add_node("cloud");
      net.connect(glasses, ap, 25e6, milliseconds(3), 300);
      net.connect(ap, univ, 1e9, milliseconds(1), 500);
      auto att = wireless::attach_cellular(net, glasses, enb,
                                           wireless::CellularProfile::lte(), 7);
      mods.push_back(std::move(att.modulator));
      net.connect(enb, cloud_n, 10e9, milliseconds(14), 1000);
      fast = std::make_unique<Lane>(net, glasses, univ, 80, server, kFastCompute);
      heavy = std::make_unique<Lane>(net, glasses, cloud_n, 81, cloud, kHeavyCompute);
      r.fast_processor = "university server (WiFi)";
      r.heavy_processor = "cloud (LTE)";
      break;
    }
    case 'b': {
      // Home WiFi: phone and computer on the LAN take the critical ops,
      // the cloud takes the rest through the home uplink.
      r.name = "(b) home WiFi D2D + cloud";
      auto ap = net.add_node("home-ap");
      auto phone_n = net.add_node("phone");
      auto cloud_n = net.add_node("cloud");
      net.connect(glasses, ap, 25e6, milliseconds(2), 300);
      net.connect(ap, phone_n, 25e6, milliseconds(2), 300);
      net.connect(ap, cloud_n, 20e6, milliseconds(18), 1000);  // home broadband
      fast = std::make_unique<Lane>(net, glasses, phone_n, 80, phone, kFastCompute);
      heavy = std::make_unique<Lane>(net, glasses, cloud_n, 81, cloud, kHeavyCompute);
      r.fast_processor = "smartphone (home WiFi)";
      r.heavy_processor = "cloud (home broadband)";
      break;
    }
    case 'c': {
      // LTE Direct D2D to a nearby phone; regular LTE to the cloud.
      r.name = "(c) LTE Direct D2D + LTE cloud";
      auto phone_n = net.add_node("phone");
      auto enb = net.add_node("enb");
      auto cloud_n = net.add_node("cloud");
      auto cfg = wireless::d2d_link_config(wireless::D2dTechnology::kLteDirect, 80.0, 0.3);
      auto cfg2 = wireless::d2d_link_config(wireless::D2dTechnology::kLteDirect, 80.0, 0.3);
      net.connect(glasses, phone_n, std::move(cfg), std::move(cfg2));
      auto att = wireless::attach_cellular(net, glasses, enb,
                                           wireless::CellularProfile::lte(), 7);
      mods.push_back(std::move(att.modulator));
      net.connect(enb, cloud_n, 10e9, milliseconds(14), 1000);
      fast = std::make_unique<Lane>(net, glasses, phone_n, 80, phone, kFastCompute);
      heavy = std::make_unique<Lane>(net, glasses, cloud_n, 81, cloud, kHeavyCompute);
      r.fast_processor = "smartphone (LTE Direct)";
      r.heavy_processor = "cloud (LTE)";
      break;
    }
    case 'd': {
      // WiFi Direct D2D to a nearby phone; LTE to the cloud.
      r.name = "(d) WiFi Direct D2D + LTE cloud";
      auto phone_n = net.add_node("phone");
      auto enb = net.add_node("enb");
      auto cloud_n = net.add_node("cloud");
      auto cfg = wireless::d2d_link_config(wireless::D2dTechnology::kWifiDirect, 15.0, 0.3);
      auto cfg2 = wireless::d2d_link_config(wireless::D2dTechnology::kWifiDirect, 15.0, 0.3);
      net.connect(glasses, phone_n, std::move(cfg), std::move(cfg2));
      auto att = wireless::attach_cellular(net, glasses, enb,
                                           wireless::CellularProfile::lte(), 7);
      mods.push_back(std::move(att.modulator));
      net.connect(enb, cloud_n, 10e9, milliseconds(14), 1000);
      fast = std::make_unique<Lane>(net, glasses, phone_n, 80, phone, kFastCompute);
      heavy = std::make_unique<Lane>(net, glasses, cloud_n, 81, cloud, kHeavyCompute);
      r.fast_processor = "smartphone (WiFi Direct)";
      r.heavy_processor = "cloud (LTE)";
      break;
    }
  }
  net.compute_routes();
  for (auto& m : mods) m->start();

  fast->offer(sim, kFastOps, milliseconds(33), kFastBytes, /*critical=*/true);
  heavy->offer(sim, kHeavyOps, milliseconds(100), kHeavyBytes, /*critical=*/false);
  sim.run_until(seconds(14));

  r.fast_median_ms = fast->latency_ms.median();
  r.heavy_median_ms = heavy->latency_ms.median();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kOutDir});
  runner::ReportTee tee(flags.str("--out-dir"), "fig5_distributed_offloading_report.txt");
  std::cout << "=== Figure 5: distributing computation among resources ===\n"
            << "Smart glasses offload latency-critical ops (2 KB @ 30 Hz) and heavy\n"
            << "ops (20 KB @ 10 Hz); per-setup median end-to-end op latency\n"
            << "(network + processor compute).\n\n";

  core::TablePrinter t({"Setup", "critical ops -> processor", "median",
                        "heavy ops -> processor", "median"});
  for (char which : {'a', 'b', 'c', 'd'}) {
    auto r = run_setup(which);
    t.add_row({r.name, r.fast_processor, core::fmt_ms(r.fast_median_ms), r.heavy_processor,
               core::fmt_ms(r.heavy_median_ms)});
  }
  t.print(std::cout);

  std::cout << "\n--- SIV-A5: WiFi Direct vs LTE Direct energy (relative units) ---\n";
  core::TablePrinter te({"Workload", "WiFi Direct", "LTE Direct", "winner"});
  struct Case {
    const char* name;
    double mb;
    int peers;
  } cases[] = {
      {"small transfer, 2 peers", 5.0, 2},
      {"small transfer, dense crowd (30 peers)", 5.0, 30},
      {"bulk transfer, 2 peers", 200.0, 2},
      {"bulk transfer, dense crowd (30 peers)", 200.0, 30},
  };
  for (const auto& c : cases) {
    double wd = wireless::d2d_energy(wireless::D2dTechnology::kWifiDirect, c.mb, c.peers);
    double ld = wireless::d2d_energy(wireless::D2dTechnology::kLteDirect, c.mb, c.peers);
    te.add_row({c.name, core::fmt(wd, 1), core::fmt(ld, 1),
                wireless::d2d_params(wireless::d2d_energy_winner(c.mb, c.peers)).name});
  }
  te.print(std::cout);

  std::cout << "\nShape check vs the paper: D2D / local processors serve the most\n"
               "latency-constrained data well under the interactive budget, while\n"
               "heavy computation rides the higher-latency path to bigger machines;\n"
               "LTE Direct and WiFi Direct are comparable, with WiFi Direct cheaper\n"
               "and deployable today (paper SIV-A5).\n";
  return 0;
}
