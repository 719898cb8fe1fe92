// City walk: the paper's whole argument in one run. A pedestrian crosses a
// metro area wearing AR glasses:
//   - an edge deployment is first *planned* with the §VI-F placement solver
//     (and §VI-E migration study) for the city's delay constraint;
//   - on the move, WiFi comes and goes per the Wi2Me coverage study while
//     LTE stays up; the §VI-D multipath sender spans both;
//   - the adaptive offloading runtime switches between CloudRidAR and
//     Glimpse as the effective link quality changes.
//
//   $ ./city_walk
#include <iostream>

#include "arnet/core/qoe.hpp"
#include "arnet/core/table.hpp"
#include "arnet/edge/mobility.hpp"
#include "arnet/edge/placement.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/wireless/cellular.hpp"
#include "arnet/wireless/coverage.hpp"

using namespace arnet;
using sim::milliseconds;
using sim::seconds;

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  // ---- Phase 1: plan the edge deployment (SVI-F). ------------------------
  std::cout << "=== Phase 1: planning the edge for a 20 km city ===\n";
  edge::PlacementProblem plan;
  plan.set_constraint(0, {milliseconds(6)});
  std::vector<edge::CandidateSite> sites;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      edge::CandidateSite s{{6.0 * i + 4.0, 6.0 * j + 4.0}, "dc" + std::to_string(3 * i + j)};
      sites.push_back(s);
      plan.add_site(s);
    }
  }
  sim::Rng urng(1);
  for (int u = 0; u < 30; ++u) {
    plan.add_user({{urng.uniform(0.0, 20.0), urng.uniform(0.0, 20.0)}, 0});
  }
  auto placement = plan.refine_mean_rtt(plan.solve_greedy());
  std::cout << "Chosen datacenters: " << placement.datacenters() << " of " << sites.size()
            << " candidates (mean RTT "
            << core::fmt_ms(sim::to_milliseconds(plan.mean_assigned_rtt(placement))) << ")\n";

  edge::MigrationStudy::Config mig_cfg;
  mig_cfg.max_rtt = milliseconds(6);
  auto mig = edge::MigrationStudy::run(sites, placement.chosen_sites, 30, 7, mig_cfg);
  std::cout << "Mobility check: median user RTT " << core::fmt_ms(mig.rtt_ms.median()) << ", "
            << core::fmt(mig.migrations_per_user_hour, 1) << " DC handoffs/user-hour, "
            << core::fmt(mig.out_of_constraint_fraction * 100, 1)
            << " % of time out of constraint\n";

  // ---- Phase 2: one user's 5-minute walk over that deployment. -----------
  std::cout << "\n=== Phase 2: a 5-minute walk (WiFi per Wi2Me, LTE always on) ===\n";
  sim::Simulator sim;
  net::Network net(sim, 2027);
  auto user = net.add_node("glasses");
  auto ap = net.add_node("street-ap");
  auto enb = net.add_node("enb");
  auto dc = net.add_node("edge-dc");
  // WiFi path, usable only ~54 % of the time.
  auto [wifi_up, wifi_down] = net.connect(user, ap, 25e6, milliseconds(4), 300);
  net.connect(ap, dc, 1e9, milliseconds(3), 1000);
  wireless::CoverageProcess wifi_cov(sim, sim::Rng(4), *wifi_up, *wifi_down,
                                     wireless::CoverageProcess::wi2me_wifi());
  // LTE path.
  auto att = wireless::attach_cellular(net, user, enb, wireless::CellularProfile::lte(), 6);
  net.connect(enb, dc, 10e9, milliseconds(9), 1000);
  net.compute_routes();
  wifi_cov.start();
  att.modulator->start();

  mar::OffloadConfig cfg;
  cfg.strategy = mar::OffloadStrategy::kAdaptive;
  cfg.device = mar::DeviceClass::kSmartGlasses;
  cfg.video = mar::VideoModel::glasses_vga15();
  cfg.artp.policy = transport::MultipathPolicy::kPreferred;
  cfg.artp.duplicate_critical_on_two_paths = true;
  std::vector<transport::ArtpPathConfig> paths;
  transport::ArtpPathConfig wifi_path;
  wifi_path.first_hop = wifi_up;
  wifi_path.name = "wifi";
  paths.push_back(std::move(wifi_path));
  transport::ArtpPathConfig lte_path;
  lte_path.first_hop = att.uplink;
  lte_path.name = "lte";
  paths.push_back(std::move(lte_path));

  mar::OffloadSession session(net, user, dc, cfg, std::move(paths));
  session.start();
  sim.run_until(seconds(300));
  session.stop();

  const auto& st = session.stats();
  core::TablePrinter t({"Metric", "Value"});
  t.add_row({"frames captured", std::to_string(st.frames)});
  t.add_row({"frames with results", std::to_string(st.results) + " (" +
                                        core::fmt(100.0 * st.results / st.frames, 1) + " %)"});
  const core::FrameCells cells = core::fmt_frames(st);
  t.add_row({"median motion-to-photon", cells.median});
  t.add_row({"p95 motion-to-photon", cells.p95});
  t.add_row({"75 ms deadline misses", cells.miss});
  t.add_row({"strategy switches (adaptive)", std::to_string(session.strategy_switches())});
  t.add_row({"WiFi / LTE uplink MB",
             core::fmt(session.uplink().path_sent_bytes(0) / 1e6, 1) + " / " +
                 core::fmt(session.uplink().path_sent_bytes(1) / 1e6, 1)});
  t.add_row({"WiFi usable fraction", core::fmt(wifi_cov.usable_fraction(sim.now()) * 100, 1) + " %"});
  double mos = core::qoe_mos(core::qoe_inputs(st, 300.0, cfg.video.fps));
  t.add_row({"QoE", core::fmt(mos, 2) + " MOS (" + core::qoe_grade(mos) + ")"});
  t.print(std::cout);

  std::cout << "\nA pair of glasses that cannot run a single frame in budget locally\n"
            << "(P_local = 160 ms) sustains an AR session across a city by combining\n"
            << "every §VI guideline: planned edge proximity, classful multipath\n"
            << "transport, and an adaptive offloading split.\n";
  return 0;
}
