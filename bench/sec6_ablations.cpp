// Ablations of the ARTP design choices DESIGN.md calls out (paper §VI):
//   1. pacing granularity — the §VI-H kernel vs user-space question;
//   2. feedback interval — how fast congestion/NACK signals travel;
//   3. FEC redundancy — parity count vs delivery vs overhead;
//   4. shed-backlog threshold — how early graceful degradation kicks in;
//   5. adaptive vs fixed strategy on a varying link.
#include <iostream>
#include <memory>
#include <vector>

#include "arnet/core/table.hpp"
#include "arnet/mar/offload.hpp"
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

struct RunStats {
  double median_ms = 0;
  double p95_ms = 0;
  double delivered_pct = 0;
  double overhead = 0;
};

/// 30 Hz / 12 KB feature stream over a 6 Mb/s, 15 ms, 2 %-loss link.
RunStats run_stream(transport::ArtpSenderConfig cfg,
                    transport::ArtpReceiver::Config rcfg = {}) {
  sim::Simulator sim;
  net::Network net(sim, 31);
  auto c = net.add_node("c");
  auto s = net.add_node("s");
  net::Link::Config up;
  up.rate_bps = 6e6;
  up.delay = milliseconds(15);
  up.queue_packets = 500;
  up.loss = std::make_unique<net::BernoulliLoss>(0.02);
  net::Link::Config down;
  down.rate_bps = 6e6;
  down.delay = milliseconds(15);
  down.queue_packets = 500;
  net.connect(c, s, std::move(up), std::move(down));

  transport::ArtpReceiver rx(net, s, 80, rcfg);
  sim::Samples latency;
  int delivered = 0;
  rx.set_message_callback([&](const transport::ArtpDelivery& d) {
    if (!d.complete || d.frame_id < 60) return;
    ++delivered;
    latency.add(sim::to_milliseconds(d.latency()));
  });
  transport::ArtpSender tx(net, c, 1000, s, 80, 1, cfg);
  constexpr int kFrames = 360;
  constexpr std::int64_t kBytes = 12'000;
  for (int i = 0; i < kFrames; ++i) {
    sim.at(sim::from_seconds(i / 30.0), [&tx, i] {
      transport::ArtpMessageSpec m;
      m.bytes = kBytes;
      m.frame_id = static_cast<std::uint32_t>(i);
      m.tclass = TrafficClass::kBestEffortLossRecovery;
      m.priority = Priority::kMediumNoDelay;
      m.stale_after = milliseconds(150);
      m.app = AppData::kFeaturePayload;
      tx.send_message(m);
    });
  }
  sim.run_until(seconds(16));
  RunStats out;
  out.median_ms = latency.median();
  out.p95_ms = latency.percentile(0.95);
  out.delivered_pct = delivered / 3.0;  // of 300 measured frames
  out.overhead = static_cast<double>(tx.sent_bytes()) / (kFrames * kBytes);
  return out;
}

struct StrategyStats {
  double median_ms = 0;
  double miss_pct = 0;
  double uplink_mb = 0;
};

/// Sweep 5's varying-link scenario (an 8 s near/far delay square wave).
StrategyStats run_strategy(mar::OffloadStrategy strategy) {
  sim::Simulator sim;
  net::Network net(sim, 9);
  auto c = net.add_node("phone");
  auto s = net.add_node("server");
  auto [up, down] = net.connect(c, s, 30e6, milliseconds(6), 500);
  for (int i = 0; i < 5; ++i) {
    sim.at(seconds(8 * (i + 1)), [&, i, u = up, d = down] {
      sim::Time delay = i % 2 == 0 ? milliseconds(65) : milliseconds(6);
      u->set_delay(delay);
      d->set_delay(delay);
    });
  }
  mar::OffloadConfig cfg;
  cfg.strategy = strategy;
  cfg.device = mar::DeviceClass::kSmartphone;
  mar::OffloadSession session(net, c, s, cfg);
  session.start();
  sim.run_until(seconds(48));
  session.stop();
  const auto& st = session.stats();
  return {st.latency_ms.median(), st.miss_rate() * 100, st.uplink_bytes / 1e6};
}

}  // namespace

int main(int argc, char** argv) {
  const runner::CommandLine flags(argc, argv, {runner::kJobs, runner::kOutDir});
  runner::ExperimentRunner pool({.jobs = flags.jobs()});
  runner::ReportTee tee(flags.str("--out-dir"), "sec6_ablations_report.txt");

  std::cout << "=== ARTP design ablations (6 Mb/s, 15 ms, 2 % loss, 30 Hz stream) ===\n";

  // All four run_stream sweeps are independent (each run owns its
  // Simulator/Network), so the whole grid fans out in one batch and the
  // tables below just slice the results. Output is identical for any --jobs.
  struct StreamTask {
    transport::ArtpSenderConfig cfg;
    transport::ArtpReceiver::Config rcfg;
  };
  std::vector<StreamTask> grid;
  const sim::Time paces[] = {milliseconds(1), milliseconds(5), milliseconds(20),
                             milliseconds(50)};
  for (auto pace : paces) {
    StreamTask t;
    t.cfg.pace_interval = pace;
    grid.push_back(t);
  }
  const sim::Time feedbacks[] = {milliseconds(10), milliseconds(25), milliseconds(100),
                                 milliseconds(400)};
  for (auto fb : feedbacks) {
    StreamTask t;
    t.rcfg.feedback_interval = fb;
    grid.push_back(t);
  }
  const std::uint32_t parities[] = {0u, 1u, 2u, 4u};
  for (auto parity : parities) {
    StreamTask t;
    t.cfg.fec_parity = parity;
    grid.push_back(t);
  }
  const sim::Time thresholds[] = {milliseconds(10), milliseconds(40), milliseconds(160)};
  for (auto thresh : thresholds) {
    StreamTask t;
    t.cfg.shed_backlog_threshold = thresh;
    grid.push_back(t);
  }
  const std::vector<RunStats> stats = pool.map<RunStats>(
      grid.size(), [&grid](runner::RunContext& ctx) {
        return run_stream(grid[ctx.run_index].cfg, grid[ctx.run_index].rcfg);
      });
  std::size_t next = 0;

  std::cout << "\n--- 1. Pacing granularity (SVI-H: kernel vs user-space timers) ---\n";
  {
    core::TablePrinter t({"pace interval", "median", "p95", "delivered"});
    for (auto pace : paces) {
      const RunStats& r = stats[next++];
      t.add_row({core::fmt_ms(sim::to_milliseconds(pace), 0), core::fmt_ms(r.median_ms),
                 core::fmt_ms(r.p95_ms), core::fmt(r.delivered_pct, 1) + " %"});
    }
    t.print(std::cout);
    std::cout << "Kernel-grade (1 ms) pacing buys a few ms; coarse user-space timers\n"
                 "(50 ms) visibly hurt the tail — the paper's in-kernel argument.\n";
  }

  std::cout << "\n--- 2. Feedback interval (congestion/NACK signal latency) ---\n";
  {
    core::TablePrinter t({"feedback every", "median", "p95", "delivered"});
    for (auto fb : feedbacks) {
      const RunStats& r = stats[next++];
      t.add_row({core::fmt_ms(sim::to_milliseconds(fb), 0), core::fmt_ms(r.median_ms),
                 core::fmt_ms(r.p95_ms), core::fmt(r.delivered_pct, 1) + " %"});
    }
    t.print(std::cout);
  }

  std::cout << "\n--- 3. FEC redundancy (parity chunks per message) ---\n";
  {
    core::TablePrinter t({"parity", "delivered complete", "p95", "wire overhead"});
    for (auto parity : parities) {
      const RunStats& r = stats[next++];
      t.add_row({std::to_string(parity), core::fmt(r.delivered_pct, 1) + " %",
                 core::fmt_ms(r.p95_ms), core::fmt((r.overhead - 1.0) * 100, 1) + " %"});
    }
    t.print(std::cout);
    std::cout << "The §VI-C compromise in numbers: each parity chunk buys completeness\n"
                 "for ~10 % more bytes on a link where resources are sparse.\n";
  }

  std::cout << "\n--- 4. Shed-backlog threshold (how early degradation starts) ---\n";
  {
    core::TablePrinter t({"threshold", "median", "p95", "delivered"});
    for (auto thresh : thresholds) {
      const RunStats& r = stats[next++];
      t.add_row({core::fmt_ms(sim::to_milliseconds(thresh), 0), core::fmt_ms(r.median_ms),
                 core::fmt_ms(r.p95_ms), core::fmt(r.delivered_pct, 1) + " %"});
    }
    t.print(std::cout);
    std::cout << "An over-aggressive threshold (10 ms) starves itself: everything is\n"
                 "shed during ramp-up, so the controller never sees traffic to grow\n"
                 "on. Degradation must leave room for the probe.\n";
  }

  std::cout << "\n--- 5. Adaptive vs fixed strategy on a varying link ---\n";
  {
    const mar::OffloadStrategy strategies[] = {mar::OffloadStrategy::kCloudRidAR,
                                               mar::OffloadStrategy::kGlimpse,
                                               mar::OffloadStrategy::kAdaptive};
    const std::vector<StrategyStats> rows = pool.map<StrategyStats>(
        3, [&strategies](runner::RunContext& ctx) {
          return run_strategy(strategies[ctx.run_index]);
        });
    core::TablePrinter t({"Strategy", "median m2p", "75 ms miss rate", "uplink MB"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      t.add_row({mar::to_string(strategies[i]), core::fmt_ms(rows[i].median_ms),
                 core::fmt(rows[i].miss_pct, 1) + " %", core::fmt(rows[i].uplink_mb, 1)});
    }
    t.print(std::cout);
    std::cout << "The adaptive runtime rides CloudRidAR while the edge is near (2.5x\n"
                 "the uplink and per-frame recognition) and hides latency behind\n"
                 "Glimpse tracking when it is not; fixed Glimpse misses least but\n"
                 "recognizes 5x fewer frames all the time.\n";
  }
  return 0;
}
