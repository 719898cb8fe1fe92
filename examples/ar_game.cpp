// AR video game (paper Fig. 1.3 / §VI-B): a 60 FPS mobile AR game offloads
// its video feed while a roommate's cloud backup saturates the same home
// uplink. With TCP the game would stall; with ARTP the experience degrades
// gracefully — interframes and sensor samples are shed, the reference
// stream and game state survive, and the app adapts quality from the QoS
// callbacks.
//
//   $ ./ar_game
#include <iostream>
#include <memory>

#include "arnet/core/table.hpp"
#include "arnet/net/network.hpp"
#include "arnet/net/queue.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/transport/tcp.hpp"

using namespace arnet;
using net::AppData;
using net::Priority;
using net::TrafficClass;
using sim::milliseconds;
using sim::seconds;

struct GameRun {
  double state_median_ms;
  double state_p95_ms;
  int state_delivered;
  int frames_complete;
  double backup_mb;
};

GameRun run_game(bool reserve_game_flow) {
  sim::Simulator sim;
  net::Network net(sim, 8);
  auto home = net.add_node("home-router");
  auto phone = net.add_node("phone");
  auto laptop = net.add_node("laptop");
  auto server = net.add_node("game-server");
  net.connect(phone, home, 80e6, milliseconds(2), 300);
  net.connect(laptop, home, 80e6, milliseconds(2), 300);
  // The home uplink: 10 Mb/s with a typically oversized modem buffer —
  // optionally running an RSVP-style WFQ reservation for the game flow
  // (paper §V-A1) instead of one long FIFO.
  net::Link::Config up;
  up.rate_bps = 10e6;
  up.delay = milliseconds(12);
  if (reserve_game_flow) {
    up.queue = std::make_unique<net::WeightedFairQueue>(
        std::vector<net::WeightedFairQueue::ClassConfig>{{3.0, 400}, {1.0, 800}},
        net::WeightedFairQueue::reserve_flow(1));
  } else {
    up.queue_packets = 800;
  }
  net::Link::Config down;
  down.rate_bps = 10e6;
  down.delay = milliseconds(12);
  down.queue_packets = 800;
  net.connect(home, server, std::move(up), std::move(down));
  net.compute_routes();

  // The game's uplink flow.
  transport::ArtpReceiver rx(net, server, 80);
  std::int64_t state_updates = 0, frames_complete = 0;
  sim::Samples state_latency_ms;
  rx.set_message_callback([&](const transport::ArtpDelivery& d) {
    if (!d.complete) return;
    if (d.app == AppData::kConnectionMetadata) {
      ++state_updates;
      state_latency_ms.add(sim::to_milliseconds(d.latency()));
    }
    if (d.app == AppData::kVideoReferenceFrame || d.app == AppData::kVideoInterFrame) {
      ++frames_complete;
    }
  });
  transport::ArtpSender tx(net, phone, 1000, server, 80, 1, transport::ArtpSenderConfig{});

  // Adaptive quality: the game reads the protocol's congestion level.
  int level = 0;
  int quality_changes = 0;
  tx.set_qos_callback([&](const transport::ArtpQosReport& r) {
    if (r.congestion_level != level) {
      ++quality_changes;
      level = r.congestion_level;
    }
  });

  // 60 FPS video (GOP 12) + 20 Hz game state + 100 Hz controller samples.
  int offered_frames = 0;
  for (int i = 0; i < 60 * 40; ++i) {
    sim.at(sim::from_seconds(i / 60.0), [&, i] {
      transport::ArtpMessageSpec m;
      bool ref = i % 12 == 0;
      double quality = level == 0 ? 1.0 : level == 1 ? 0.6 : 0.35;
      m.bytes = ref ? 20'000 : static_cast<std::int64_t>(4000 * quality);
      m.tclass = ref ? TrafficClass::kBestEffortLossRecovery : TrafficClass::kFullBestEffort;
      m.priority = ref ? Priority::kMediumNoDrop : Priority::kLowest;
      m.app = ref ? AppData::kVideoReferenceFrame : AppData::kVideoInterFrame;
      m.frame_id = static_cast<std::uint32_t>(i);
      m.stale_after = ref ? 0 : milliseconds(50);
      ++offered_frames;
      tx.send_message(m);
    });
  }
  for (int i = 0; i < 20 * 40; ++i) {
    sim.at(milliseconds(50) * i, [&] {
      transport::ArtpMessageSpec m;
      m.bytes = 256;
      m.tclass = TrafficClass::kCriticalData;
      m.priority = Priority::kHighest;
      m.app = AppData::kConnectionMetadata;
      tx.send_message(m);
    });
  }

  // The roommate's backup kicks in at t=15 s.
  transport::TcpSink backup_sink(net, server, 81);
  transport::TcpSource backup(net, laptop, 2000, server, 81, 9);
  sim.at(seconds(15), [&] { backup.send_forever(); });

  sim.run_until(seconds(40));
  (void)offered_frames;
  (void)quality_changes;

  GameRun r;
  r.state_median_ms = state_latency_ms.median();
  r.state_p95_ms = state_latency_ms.percentile(0.95);
  r.state_delivered = static_cast<int>(state_updates);
  r.frames_complete = static_cast<int>(frames_complete);
  r.backup_mb = backup_sink.received_bytes() / 1e6;
  return r;
}

int main(int argc, char** argv) {
  runner::CommandLine(argc, argv, {});
  std::cout << "=== 40 s AR game session, roommate's cloud backup from t=15 s ===\n"
            << "The game's uplink (ARTP) shares a 10 Mb/s home uplink with a bulk\n"
            << "TCP backup. Second run: the router gives the game an RSVP-style\n"
            << "WFQ reservation (SV-A1).\n\n";
  core::TablePrinter t({"Home uplink queue", "state median", "state p95",
                        "state delivered", "video frames", "backup MB"});
  GameRun fifo = run_game(false);
  GameRun wfq = run_game(true);
  t.add_row({"one FIFO (bufferbloat)", core::fmt_ms(fifo.state_median_ms),
             core::fmt_ms(fifo.state_p95_ms), std::to_string(fifo.state_delivered) + "/800",
             std::to_string(fifo.frames_complete), core::fmt(fifo.backup_mb, 1)});
  t.add_row({"WFQ reservation for the game", core::fmt_ms(wfq.state_median_ms),
             core::fmt_ms(wfq.state_p95_ms), std::to_string(wfq.state_delivered) + "/800",
             std::to_string(wfq.frames_complete), core::fmt(wfq.backup_mb, 1)});
  t.print(std::cout);

  std::cout << "\nWithout a reservation the game's critical state updates queue\n"
               "behind the backup's packets in the bloated FIFO; a per-flow WFQ\n"
               "reservation restores interactive latency while the backup still\n"
               "gets its share — the commercial QoS argument of SV-A1, plus\n"
               "ARTP's graceful degradation keeping the video functional either way.\n";
  return 0;
}
