// Reproduces the §VI-D multipath behaviors: (1) WiFi all the time with 4G
// only for handover, (2) WiFi preferred with 4G filling gaps, (3) WiFi+4G
// aggregated. An urban walk drives WiFi usability with the Wi2Me coverage
// process (usable ~54 % of the time, multi-second gaps) while LTE stays
// mostly associated. Reports service availability, latency, and how much
// (expensive) cellular data each behavior burns.
#include <iostream>
#include <memory>
#include <vector>

#include "arnet/core/table.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/wireless/cellular.hpp"
#include "arnet/wireless/coverage.hpp"

using namespace arnet;
using net::AppData;
using net::Priority;
using net::TrafficClass;
using sim::milliseconds;
using sim::seconds;

namespace {

struct PolicyResult {
  double delivery_rate = 0;
  double median_ms = 0;
  double p95_ms = 0;
  double cellular_mb = 0;
  double wifi_mb = 0;
};

PolicyResult run(transport::MultipathPolicy policy, bool single_path_baseline = false) {
  sim::Simulator sim;
  net::Network net(sim, 2026);
  auto user = net.add_node("user");
  auto ap = net.add_node("ap");
  auto enb = net.add_node("enb");
  auto server = net.add_node("edge-server");

  // WiFi path: good when usable, with Wi2Me urban availability.
  net::Link::Config wu;
  wu.rate_bps = 25e6;
  wu.delay = milliseconds(4);
  wu.queue_packets = 300;
  net::Link::Config wd;
  wd.rate_bps = 25e6;
  wd.delay = milliseconds(4);
  wd.queue_packets = 300;
  auto [wifi_up, wifi_down] = net.connect(user, ap, std::move(wu), std::move(wd));
  net.connect(ap, server, 1e9, milliseconds(4), 1000);
  wireless::CoverageProcess wifi_cov(sim, sim::Rng(5), *wifi_up, *wifi_down,
                                     wireless::CoverageProcess::wi2me_wifi());

  // LTE path: slower and laggier, but nearly always there.
  auto att = wireless::attach_cellular(net, user, enb, wireless::CellularProfile::lte(), 31);
  net.connect(enb, server, 10e9, milliseconds(8), 1000);
  wireless::CoverageProcess lte_cov(sim, sim::Rng(6), *att.uplink, *att.downlink,
                                    wireless::CoverageProcess::cellular());
  net.compute_routes();
  wifi_cov.start();
  lte_cov.start();
  att.modulator->start();

  transport::ArtpSenderConfig cfg;
  cfg.policy = policy;
  std::vector<transport::ArtpPathConfig> paths;
  transport::ArtpPathConfig wifi_path;
  wifi_path.first_hop = wifi_up;
  wifi_path.name = "wifi";
  paths.push_back(std::move(wifi_path));
  if (!single_path_baseline) {
    transport::ArtpPathConfig lte_path;
    lte_path.first_hop = att.uplink;
    lte_path.name = "lte";
    paths.push_back(std::move(lte_path));
  }

  transport::ArtpReceiver rx(net, server, 80);
  sim::Samples latency_ms;
  int delivered = 0;
  rx.set_message_callback([&](const transport::ArtpDelivery& d) {
    if (!d.complete) return;
    ++delivered;
    latency_ms.add(sim::to_milliseconds(d.latency()));
  });
  transport::ArtpSender tx(net, user, 1000, server, 80, 1, cfg, std::move(paths));

  // A 300 s walk offloading a feature stream: 15 KB @ 15 Hz (~1.8 Mb/s).
  constexpr int kMessages = 4500;
  for (int i = 0; i < kMessages; ++i) {
    sim.at(sim::from_seconds(i / 15.0), [&tx, i] {
      transport::ArtpMessageSpec m;
      m.bytes = 15'000;
      m.frame_id = static_cast<std::uint32_t>(i);
      m.tclass = TrafficClass::kBestEffortLossRecovery;
      m.priority = Priority::kMediumNoDelay;
      m.stale_after = milliseconds(250);
      m.app = AppData::kFeaturePayload;
      tx.send_message(m);
    });
  }
  sim.run_until(seconds(305));

  PolicyResult r;
  r.delivery_rate = static_cast<double>(delivered) / kMessages;
  r.median_ms = latency_ms.median();
  r.p95_ms = latency_ms.percentile(0.95);
  r.wifi_mb = tx.path_sent_bytes(0) / 1e6;
  r.cellular_mb = tx.path_count() > 1 ? tx.path_sent_bytes(1) / 1e6 : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kJobs, runner::kOutDir});
  runner::ExperimentRunner pool({.jobs = flags.jobs()});
  runner::ReportTee tee(flags.str("--out-dir"), "sec6_multipath_policies_report.txt");
  std::cout << "=== SVI-D: multipath behaviors on an urban walk (300 s) ===\n"
            << "WiFi usable ~54 % of the time (Wi2Me), LTE almost always on.\n"
            << "Workload: 15 KB feature batches at 15 Hz.\n\n";

  core::TablePrinter t({"Behavior", "delivered", "median", "p95", "WiFi MB",
                        "cellular MB"});
  struct Row {
    const char* name;
    transport::MultipathPolicy policy;
    bool single;
  } rows[] = {
      {"WiFi only (no multipath)", transport::MultipathPolicy::kSingle, true},
      {"(1) WiFi + 4G for handover", transport::MultipathPolicy::kHandoverOnly, false},
      {"(2) WiFi preferred, 4G fills gaps", transport::MultipathPolicy::kPreferred, false},
      {"(3) WiFi + 4G aggregated", transport::MultipathPolicy::kAggregate, false},
  };
  // Each behavior is a full 300 s walk in its own simulation world — fan the
  // four walks across the pool; the table order stays fixed.
  const std::vector<PolicyResult> results = pool.map<PolicyResult>(
      std::size(rows), [&rows](runner::RunContext& ctx) {
        return run(rows[ctx.run_index].policy, rows[ctx.run_index].single);
      });
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const PolicyResult& r = results[i];
    t.add_row({rows[i].name, core::fmt(r.delivery_rate * 100, 1) + " %",
               core::fmt_ms(r.median_ms), core::fmt_ms(r.p95_ms), core::fmt(r.wifi_mb, 1),
               core::fmt(r.cellular_mb, 1)});
  }
  t.print(std::cout);

  std::cout << "\nShape check vs the paper: WiFi alone loses roughly the Wi2Me gap\n"
               "fraction of the service; behavior (1) restores near-100 % delivery\n"
               "with modest cellular usage; (2) spends a bit more 4G for better\n"
               "latency; (3) buys the best latency/bandwidth at the highest\n"
               "cellular cost.\n";
  return 0;
}
