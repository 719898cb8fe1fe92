// Reproduces the §VI-C loss-recovery analysis: with 30 FPS and a 75 ms
// budget, retransmission can recover a lost frame only while RTT <= 37.5 ms;
// beyond that, only proactive redundancy (FEC) or multipath duplication
// keeps frames inside the deadline. Sweeps path RTT and compares four
// recovery strategies on a lossy link.
#include <iostream>
#include <memory>

#include "arnet/core/table.hpp"
#include "arnet/net/loss.hpp"
#include "arnet/net/network.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"

using namespace arnet;
using net::AppData;
using net::Priority;
using net::TrafficClass;
using sim::milliseconds;
using sim::seconds;

namespace {

enum class Strategy { kNone, kRetransmit, kFec, kDuplicate };

const char* name_of(Strategy s) {
  switch (s) {
    case Strategy::kNone: return "best effort (no recovery)";
    case Strategy::kRetransmit: return "retransmission (NACK)";
    case Strategy::kFec: return "FEC (2 parity/frame)";
    case Strategy::kDuplicate: return "multipath duplication";
  }
  return "?";
}

struct Outcome {
  double in_budget_fraction;  ///< frames complete within 75 ms
  double delivered_fraction;  ///< frames eventually complete
  double overhead;            ///< bytes sent / app bytes offered
};

Outcome run(Strategy strategy, sim::Time one_way, double loss) {
  sim::Simulator sim;
  net::Network net(sim, 77);
  auto client = net.add_node("client");
  auto server = net.add_node("server");

  auto lossy_cfg = [&](const char* name) {
    net::Link::Config cfg;
    cfg.rate_bps = 30e6;
    cfg.delay = one_way;
    cfg.queue_packets = 500;
    cfg.loss = std::make_unique<net::BernoulliLoss>(loss);
    cfg.name = name;
    return cfg;
  };
  net::Link::Config back;
  back.rate_bps = 30e6;
  back.delay = one_way;
  back.queue_packets = 500;
  auto [up1, d1] = net.connect(client, server, lossy_cfg("path1"), std::move(back));
  (void)d1;
  net::Link* up2 = nullptr;
  if (strategy == Strategy::kDuplicate) {
    auto relay = net.add_node("relay");
    auto [l, d2] = net.connect(client, relay, lossy_cfg("path2"), net::Link::Config{});
    (void)d2;
    net.connect(relay, server, 1e9, 0, 500);
    up2 = l;
  }

  transport::ArtpSenderConfig cfg;
  cfg.fec_parity = strategy == Strategy::kFec ? 2 : 0;
  cfg.critical_rto = milliseconds(80);
  std::vector<transport::ArtpPathConfig> paths;
  if (strategy == Strategy::kDuplicate) {
    cfg.policy = transport::MultipathPolicy::kAggregate;
    cfg.duplicate_critical_on_two_paths = true;
    transport::ArtpPathConfig p1;
    p1.first_hop = up1;
    paths.push_back(std::move(p1));
    transport::ArtpPathConfig p2;
    p2.first_hop = up2;
    paths.push_back(std::move(p2));
  }

  // Measurement starts after a 2 s warmup so the rate controller's ramp-up
  // doesn't pollute the recovery comparison.
  constexpr int kWarmupFrames = 60;
  transport::ArtpReceiver rx(net, server, 80);
  int in_budget = 0, delivered = 0;
  rx.set_message_callback([&](const transport::ArtpDelivery& d) {
    if (!d.complete || d.frame_id < kWarmupFrames) return;
    ++delivered;
    if (d.latency() <= milliseconds(75)) ++in_budget;
  });
  transport::ArtpSender tx(net, client, 1000, server, 80, 1, cfg, std::move(paths));

  // 30 FPS frames, ~15 KB each (one video frame / feature batch).
  constexpr int kFrames = 360;
  constexpr std::int64_t kBytes = 15'000;
  for (int i = 0; i < kFrames; ++i) {
    sim.at(sim::from_seconds(i / 30.0), [&tx, strategy, i] {
      transport::ArtpMessageSpec m;
      m.bytes = kBytes;
      m.frame_id = static_cast<std::uint32_t>(i);
      switch (strategy) {
        case Strategy::kNone:
          m.tclass = TrafficClass::kFullBestEffort;
          m.priority = Priority::kMediumNoDrop;
          break;
        case Strategy::kRetransmit:
        case Strategy::kDuplicate:
          m.tclass = TrafficClass::kCriticalData;
          m.priority = Priority::kHighest;
          break;
        case Strategy::kFec:
          m.tclass = TrafficClass::kBestEffortLossRecovery;
          m.priority = Priority::kMediumNoDrop;
          break;
      }
      m.app = AppData::kVideoReferenceFrame;
      tx.send_message(m);
    });
  }
  sim.run_until(seconds(16));

  Outcome out;
  const int measured = kFrames - kWarmupFrames;
  out.in_budget_fraction = static_cast<double>(in_budget) / measured;
  out.delivered_fraction = static_cast<double>(delivered) / measured;
  out.overhead = static_cast<double>(tx.sent_bytes()) / (kFrames * kBytes);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kOutDir});
  runner::ReportTee tee(flags.str("--out-dir"), "sec6_loss_recovery_report.txt");
  std::cout << "=== SVI-C: loss recovery under the 75 ms budget (30 FPS, 2 % loss) ===\n"
            << "Fraction of frames complete within 75 ms, by path RTT and strategy.\n\n";

  const double kLoss = 0.02;
  core::TablePrinter t({"RTT", "best effort", "retransmit", "FEC", "duplicate",
                        "retransmit feasible? (RTT<=37.5)"});
  for (sim::Time one_way : {milliseconds(5), milliseconds(12), milliseconds(18),
                            milliseconds(25), milliseconds(35), milliseconds(60)}) {
    double rtt_ms = 2 * sim::to_milliseconds(one_way);
    auto none = run(Strategy::kNone, one_way, kLoss);
    auto retx = run(Strategy::kRetransmit, one_way, kLoss);
    auto fec = run(Strategy::kFec, one_way, kLoss);
    auto dup = run(Strategy::kDuplicate, one_way, kLoss);
    t.add_row({core::fmt_ms(rtt_ms, 0), core::fmt(none.in_budget_fraction * 100, 1) + " %",
               core::fmt(retx.in_budget_fraction * 100, 1) + " %",
               core::fmt(fec.in_budget_fraction * 100, 1) + " %",
               core::fmt(dup.in_budget_fraction * 100, 1) + " %",
               rtt_ms <= 37.5 ? "yes" : "no"});
  }
  t.print(std::cout);

  std::cout << "\nOverhead at RTT = 36 ms (bytes on wire / app bytes):\n";
  for (auto s : {Strategy::kNone, Strategy::kRetransmit, Strategy::kFec, Strategy::kDuplicate}) {
    auto o = run(s, milliseconds(18), kLoss);
    std::cout << "  " << name_of(s) << ": " << core::fmt(o.overhead, 3)
              << "x  (delivered " << core::fmt(o.delivered_fraction * 100, 1) << " %)\n";
  }

  std::cout << "\nShape check vs the paper: past RTT ~37.5 ms a retransmission cannot\n"
               "arrive inside the 75 ms budget, so its in-budget rate decays toward\n"
               "the no-recovery line, while FEC and duplication hold — at the price\n"
               "of extra bytes on links where resources are sparse (SVI-C).\n";
  return 0;
}
