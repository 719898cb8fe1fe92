// Reproduces the §IV-A wireless network survey: theoretical capability vs
// everyday behavior, with the everyday column *simulated* by running real
// transfers over the library's access-network models (cellular modulators,
// the 802.11 DCF cell) and measured like SpeedTest/OpenSignal would. Also
// reproduces the §IV-A4 Wi2Me coverage study numbers.
#include <iostream>
#include <memory>
#include <vector>

#include "arnet/core/table.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/transport/udp.hpp"
#include "arnet/wireless/cellular.hpp"
#include "arnet/wireless/coverage.hpp"
#include "arnet/wireless/survey.hpp"
#include "arnet/wireless/wifi.hpp"

using namespace arnet;
using sim::milliseconds;
using sim::seconds;

namespace {

struct Measured {
  double down_mbps = 0;
  double up_mbps = 0;
  double rtt_ms = 0;
};

/// SpeedTest-style measurement over a cellular profile: several parallel
/// bulk TCP flows each way (as real speed tests use), then UDP RTT probes,
/// all while the modulator keeps the link moving.
Measured measure_cellular(const wireless::CellularProfile& profile) {
  Measured out{};
  constexpr int kFlows = 6;
  // Down and up are measured sequentially, as real speed tests do —
  // running both at once would trip the paper's own Fig. 3 coupling.
  auto one_direction = [&](bool downstream) {
    sim::Simulator sim;
    net::Network net(sim, 5);
    auto ue = net.add_node("ue");
    auto core = net.add_node("core");
    auto att = wireless::attach_cellular(net, ue, core, profile, 17);
    att.modulator->start();
    auto rx_node = downstream ? ue : core;
    auto tx_node = downstream ? core : ue;
    std::vector<std::unique_ptr<transport::TcpSink>> sinks;
    std::vector<std::unique_ptr<transport::TcpSource>> sources;
    for (int i = 0; i < kFlows; ++i) {
      auto port = static_cast<net::Port>(80 + i);
      sinks.push_back(std::make_unique<transport::TcpSink>(net, rx_node, port));
      sources.push_back(std::make_unique<transport::TcpSource>(
          net, tx_node, static_cast<net::Port>(2000 + i), rx_node, port, net::FlowId(1 + i)));
      sources.back()->send_forever();
    }
    sim.run_until(seconds(20));
    std::int64_t total = 0;
    for (auto& s : sinks) total += s->received_bytes();
    return total * 8.0 / 20.0 / 1e6;
  };
  out.down_mbps = one_direction(true);
  out.up_mbps = one_direction(false);
  {
    sim::Simulator sim;
    net::Network net(sim, 5);
    auto ue = net.add_node("ue");
    auto core = net.add_node("core");
    auto att = wireless::attach_cellular(net, ue, core, profile, 23);
    att.modulator->start();
    transport::UdpEndpoint echo(net, core, 7);
    echo.set_handler([&](net::Packet&& p) { echo.send(p.src, p.src_port, 172, p.flow); });
    transport::UdpEndpoint pinger(net, ue, 1007);
    sim::Samples rtt;
    std::map<net::FlowId, sim::Time> sent;
    pinger.set_handler([&](net::Packet&& p) {
      auto it = sent.find(p.flow);
      if (it != sent.end()) rtt.add(sim::to_milliseconds(sim.now() - it->second));
    });
    for (int i = 1; i <= 100; ++i) {
      sim.at(milliseconds(100) * i, [&, i] {
        sent[static_cast<net::FlowId>(i)] = sim.now();
        pinger.send(core, 7, 172, static_cast<net::FlowId>(i));
      });
    }
    sim.run_until(seconds(15));
    out.rtt_ms = rtt.median();
  }
  return out;
}

/// Everyday WiFi: a contended cell with several stations — some at degraded
/// PHY rates (the performance anomaly is part of everyday life) — and frame
/// aggregation for 802.11n/ac (A-MPDU), which is what keeps high-PHY cells
/// from drowning in per-frame overhead.
Measured measure_wifi(double phy_bps, int contenders, std::int32_t aggregate_bytes) {
  sim::Simulator sim;
  wireless::WifiCell cell(sim, sim::Rng(3), wireless::WifiCell::Config{});
  auto user = cell.add_station(phy_bps, "user");
  std::vector<std::uint32_t> others;
  for (int i = 0; i < contenders; ++i) {
    others.push_back(cell.add_station(phy_bps / (i % 2 ? 4.0 : 1.0)));
  }
  auto frame = [aggregate_bytes] {
    net::Packet p;
    p.size_bytes = aggregate_bytes;
    return p;
  };
  std::int64_t user_bytes = 0;
  cell.set_sink(wireless::WifiCell::kApId, [&](net::Packet&& p, std::uint32_t from) {
    if (from == user) user_bytes += p.size_bytes;
    cell.send(from, wireless::WifiCell::kApId, frame());
  });
  for (int i = 0; i < 3; ++i) {
    cell.send(user, wireless::WifiCell::kApId, frame());
    for (auto s : others) cell.send(s, wireless::WifiCell::kApId, frame());
  }
  sim.run_until(seconds(5));
  double mbps = user_bytes * 8.0 / 5.0 / 1e6;
  // In-cell frame latency under contention (AP backhaul RTTs are Table II's
  // business).
  double rtt = sim::to_milliseconds(wireless::frame_airtime(aggregate_bytes, phy_bps)) *
               (1 + static_cast<double>(contenders));
  return {mbps, mbps, rtt};
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kJobs});
  runner::ExperimentRunner pool({.jobs = flags.jobs()});
  std::cout << "=== SIV-A: wireless technologies, advertised vs everyday ===\n\n";
  core::TablePrinter t({"Technology", "theoretical down/up", "cited measured", "simulated:",
                        "down", "up", "RTT"});
  auto cite = [](const wireless::SurveyRow& r) {
    if (r.measured_down_mbps <= 0) return std::string("n/a (not deployed)");
    return core::fmt(r.measured_down_mbps, 1) + "/" + core::fmt(r.measured_up_mbps, 1) +
           " Mb/s, " + core::fmt(r.measured_rtt_ms, 0) + " ms";
  };

  // One SpeedTest-style measurement campaign per technology, each in its own
  // simulation world — fan them across the pool, print in survey order.
  struct SurveyMeasurement {
    Measured m;
    bool simulated = false;
  };
  const std::vector<wireless::SurveyRow> survey = wireless::wireless_survey();
  const std::vector<SurveyMeasurement> measurements = pool.map<SurveyMeasurement>(
      survey.size(), [&survey](runner::RunContext& ctx) {
        const auto& row = survey[ctx.run_index];
        SurveyMeasurement out;
        out.simulated = true;
        if (row.technology == "HSPA+") {
          out.m = measure_cellular(wireless::CellularProfile::hspa_plus());
        } else if (row.technology == "LTE") {
          out.m = measure_cellular(wireless::CellularProfile::lte());
        } else if (row.technology == "5G (NGMN AR KPI)") {
          out.m = measure_cellular(wireless::CellularProfile::fiveg_kpi());
        } else if (row.technology == "802.11n") {
          out.m = measure_wifi(72e6, 4, 3000);   // 1-stream n cell with neighbors
        } else if (row.technology == "802.11ac") {
          out.m = measure_wifi(433e6, 4, 12000);  // ac with A-MPDU aggregation
        } else {
          out.simulated = false;
        }
        return out;
      });

  for (std::size_t i = 0; i < survey.size(); ++i) {
    const auto& row = survey[i];
    const Measured& m = measurements[i].m;
    const bool simulated = measurements[i].simulated;
    t.add_row({row.technology,
               core::fmt(row.theoretical_down_mbps, 0) + "/" +
                   core::fmt(row.theoretical_up_mbps, 0) + " Mb/s",
               cite(row), simulated ? "" : "n/a",
               simulated ? core::fmt(m.down_mbps, 1) : "-",
               simulated ? core::fmt(m.up_mbps, 1) : "-",
               simulated ? core::fmt(m.rtt_ms, 0) + " ms" : "-"});
  }
  t.print(std::cout);

  std::cout << "\n=== SIV-A4: urban WiFi usability (Wi2Me study) ===\n";
  sim::Simulator sim;
  net::Network net(sim, 9);
  auto a = net.add_node("user");
  auto b = net.add_node("net");
  auto [up, down] = net.connect(a, b, 10e6, milliseconds(10));
  (void)down;
  wireless::CoverageProcess cov(sim, sim::Rng(11), *up, *net.link_between(b, a),
                                wireless::CoverageProcess::wi2me_wifi());
  cov.start();
  sim.run_until(seconds(7200));
  std::cout << "  AP visibility assumed:            98.9 % (paper)\n"
            << "  usable connectivity (simulated):  "
            << core::fmt(cov.usable_fraction(sim.now()) * 100, 1) << " % (paper: 53.8 %)\n"
            << "  handover gaps in 2 h:             " << cov.handovers() << "\n";

  std::cout << "\nShape check vs the paper: every technology lands far below its\n"
               "advertised rate under everyday conditions; HSPA+ is unusable for\n"
               "MAR, LTE is marginal, and urban WiFi is usable barely half the time.\n";
  return 0;
}
