#include "arnet/core/shootout.hpp"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "arnet/check/assert.hpp"
#include "arnet/net/link.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/transport/artp.hpp"
#include "arnet/transport/quic_lite.hpp"
#include "arnet/transport/tcp.hpp"
#include "arnet/wireless/cellular.hpp"
#include "arnet/wireless/wifi_bridge.hpp"

namespace arnet::core {

const char* to_string(ShootoutTransport t) {
  switch (t) {
    case ShootoutTransport::kArtp: return "ARTP";
    case ShootoutTransport::kReno: return "Reno";
    case ShootoutTransport::kCubic: return "CUBIC";
    case ShootoutTransport::kBbr: return "BBR";
    case ShootoutTransport::kQuicLite: return "QUIC-lite";
  }
  return "?";
}

const char* to_string(ShootoutNetwork n) {
  switch (n) {
    case ShootoutNetwork::kWifi: return "WiFi";
    case ShootoutNetwork::kLte: return "LTE";
    case ShootoutNetwork::kNr5g: return "5G-NR";
  }
  return "?";
}

std::string ShootoutCellConfig::name() const {
  return std::string(to_string(transport)) + "/" + to_string(network);
}

namespace {

constexpr net::Port kArClientPort = 5000;
constexpr net::Port kArServerPort = 6000;
constexpr net::FlowId kArFlow = 1;
constexpr double kFps = 30.0;
constexpr std::int64_t kFrameBytes = 30000;  ///< ~30 KB compressed camera frame
constexpr int kWifiContenders = 2;           ///< saturated stations sharing the WiFi cell

/// Everything that must stay alive while the cell runs.
struct CellPlant {
  std::unique_ptr<wireless::WifiSharedMedium> medium;
  std::unique_ptr<wireless::CellularModulator> modulator;
};

/// Builds the access network between client and server for the chosen leg.
void build_network(const ShootoutCellConfig& cfg, net::Network& net, net::NodeId client,
                   net::NodeId server, std::uint64_t seed, CellPlant& plant) {
  switch (cfg.network) {
    case ShootoutNetwork::kWifi: {
      // One DCF cell: the AR client plus kWifiContenders saturated stations
      // share the medium; the AP->client downlink (ACKs, feedback) is
      // modeled contention-free.
      net::Link::Config up;
      up.rate_bps = 30e6;
      up.delay = sim::milliseconds(2);
      up.queue_packets = 200;
      up.name = "wifi-up";
      net::Link::Config down;
      down.rate_bps = 54e6;
      down.delay = sim::milliseconds(2);
      down.queue_packets = 200;
      down.name = "wifi-down";
      net::Link* ul = net.connect(client, server, std::move(up), std::move(down)).first;
      plant.medium = std::make_unique<wireless::WifiSharedMedium>(net.sim());
      plant.medium->attach(*ul, 54e6);
      for (int i = 0; i < kWifiContenders; ++i) plant.medium->attach_saturated(54e6);
      plant.medium->start();
      break;
    }
    case ShootoutNetwork::kLte:
    case ShootoutNetwork::kNr5g: {
      wireless::CellularProfile profile = cfg.network == ShootoutNetwork::kLte
                                              ? wireless::CellularProfile::lte()
                                              : wireless::CellularProfile::nr_5g();
      auto att = wireless::attach_cellular(net, client, server, profile, seed ^ 0xCE11);
      att.modulator->start();
      plant.modulator = std::move(att.modulator);
      break;
    }
  }
}

}  // namespace

ShootoutCellResult run_shootout_cell(const ShootoutCellConfig& cfg, std::uint64_t seed,
                                     const trace::Telemetry& telemetry) {
  sim::Simulator sim;
  net::Network net(sim, seed);
  net::NodeId client = net.add_node("ar-client");
  net::NodeId server = net.add_node("edge-server");

  CellPlant plant;
  build_network(cfg, net, client, server, seed, plant);

  // Frame-level scoreboard shared by all five transports: completion events
  // feed it, and whatever never completes is incomplete by subtraction.
  sim::FrameLedger ledger;

  // Telemetry is a pure observer: the trace/SLO stream reads completion
  // events the scoring path already produces and feeds nothing back.
  trace::Telemetry observers = telemetry;
  observers.wire();
  const trace::Emitter emitter(observers.tracer, cfg.name());
  // Every submitted frame not yet classified, with its trace context (empty
  // when untraced); erased on classification, so whatever remains at the
  // end is provably unclassified.
  std::map<std::uint32_t, trace::TraceContext> frame_ctx;
  auto ctx_of = [&](std::uint32_t fid) {
    auto it = frame_ctx.find(fid);
    return it == frame_ctx.end() ? trace::TraceContext{} : it->second;
  };
  // Every completion a transport reports is scored; the telemetry stream gives
  // each frame one verdict: complete frames observe their latency (late ==
  // miss for the SLO), incompletes record an explicit drop + miss. A frame
  // already classified stays so: ARTP can re-report an expired message.
  auto score = [&](std::uint32_t fid, bool complete, sim::Time latency) {
    const bool missed = complete && ledger.complete(latency, kShootoutDeadline);
    auto it = frame_ctx.find(fid);
    if (it == frame_ctx.end()) return;
    const trace::TraceContext ctx = it->second;
    frame_ctx.erase(it);
    const sim::Time now = sim.now();
    if (!complete) {
      emitter.emit(now, trace::EventKind::kDrop, ctx, fid, 0, "incomplete");
      emitter.emit(now, trace::EventKind::kFrameMiss, ctx, fid, 0, "incomplete");
      if (observers.slo) observers.slo->observe_miss(now);
      return;
    }
    emitter.verdict(now, ctx, fid, latency, missed);
    if (observers.slo) observers.slo->observe(now, sim::to_milliseconds(latency));
  };

  // Transport plumbing. Exactly one of these sets of endpoints is live; the
  // submit closure hides which one.
  std::unique_ptr<transport::ArtpSender> artp_tx;
  std::unique_ptr<transport::ArtpReceiver> artp_rx;
  std::unique_ptr<transport::TcpSource> tcp_tx;
  std::unique_ptr<transport::TcpSink> tcp_rx;
  std::unique_ptr<transport::QuicLiteSender> quic_tx;
  std::unique_ptr<transport::QuicLiteReceiver> quic_rx;
  std::function<void()> submit_frame;

  // TCP frames are byte ranges of one stream: frame i is complete when the
  // sink's cumulative byte count crosses boundary (i+1)*frame_bytes.
  struct TcpFrame {
    std::uint32_t frame_id = 0;
    std::int64_t boundary = 0;
    sim::Time submitted_at = 0;
  };
  std::deque<TcpFrame> tcp_frames;
  std::int64_t tcp_submitted_bytes = 0;

  switch (cfg.transport) {
    case ShootoutTransport::kArtp: {
      transport::ArtpSenderConfig scfg;
      // Provision the delay-gradient controller at the media's nominal rate
      // (frame_bytes x fps), the way real-time stacks seed their start
      // bitrate from the encoder target. The controller default of 1 Mb/s
      // with +200 kb/s per epoch never catches a 7.2 Mb/s frame source:
      // the staging backlog blows past the 250 ms staleness bound within
      // four frames and from then on every message is shed before a single
      // chunk reaches the wire — zero deliveries, complete or otherwise.
      std::vector<transport::ArtpPathConfig> paths(1);
      paths[0].initial_rate_bps = static_cast<double>(kFrameBytes) * 8.0 * kFps;
      artp_tx = std::make_unique<transport::ArtpSender>(net, client, kArClientPort, server,
                                                        kArServerPort, kArFlow, scfg,
                                                        std::move(paths));
      artp_rx = std::make_unique<transport::ArtpReceiver>(net, server, kArServerPort);
      artp_rx->set_message_callback([&](const transport::ArtpDelivery& d) {
        // Incomplete (expired) deliveries stay in the incomplete bucket.
        score(d.frame_id, d.complete, d.latency());
      });
      submit_frame = [&] {
        transport::ArtpMessageSpec spec;
        spec.bytes = kFrameBytes;
        spec.tclass = net::TrafficClass::kBestEffortLossRecovery;
        spec.priority = net::Priority::kMediumNoDelay;
        spec.app = net::AppData::kVideoReferenceFrame;
        // kMediumNoDelay is a droppable band, whose default stale-after
        // (60 ms) is shorter than one 30 KB frame's serialization at the
        // delay-gradient controller's initial 1 Mb/s — every frame would be
        // shed mid-flight before the rate ramps. Keep frames eligible until
        // the receiver's own 250 ms expiry would reclassify them anyway.
        spec.stale_after = sim::milliseconds(250);
        spec.frame_id = static_cast<std::uint32_t>(ledger.frames);
        spec.trace = ctx_of(spec.frame_id);
        artp_tx->send_message(spec);
      };
      break;
    }
    case ShootoutTransport::kReno:
    case ShootoutTransport::kCubic:
    case ShootoutTransport::kBbr: {
      transport::TcpSource::Config tc;
      tc.flavor = cfg.transport == ShootoutTransport::kReno    ? transport::TcpFlavor::kReno
                  : cfg.transport == ShootoutTransport::kCubic ? transport::TcpFlavor::kCubic
                                                               : transport::TcpFlavor::kBbr;
      tc.sack = true;
      tcp_rx = std::make_unique<transport::TcpSink>(net, server, kArServerPort);
      tcp_tx = std::make_unique<transport::TcpSource>(net, client, kArClientPort, server,
                                                      kArServerPort, kArFlow, tc);
      submit_frame = [&] {
        tcp_submitted_bytes += kFrameBytes;
        tcp_frames.push_back(
            {static_cast<std::uint32_t>(ledger.frames), tcp_submitted_bytes, sim.now()});
        tcp_tx->send(kFrameBytes);
      };
      break;
    }
    case ShootoutTransport::kQuicLite: {
      quic_tx = std::make_unique<transport::QuicLiteSender>(net, client, kArClientPort, server,
                                                            kArServerPort, kArFlow);
      transport::QuicLiteReceiver::Config qr;
      qr.deadline = kShootoutDeadline;
      quic_rx = std::make_unique<transport::QuicLiteReceiver>(net, server, kArServerPort, qr);
      quic_rx->set_frame_callback([&](const transport::QuicFrameResult& r) {
        score(r.frame_id, r.complete, r.latency());
      });
      submit_frame = [&] {
        quic_tx->send_frame(kFrameBytes, ctx_of(static_cast<std::uint32_t>(ledger.frames)));
      };
      break;
    }
  }

  // Frame clock: frame i is submitted at the absolute instant i/fps, so a
  // cell of duration D carries exactly floor(D*fps) frames. (A relative
  // `after(1/fps)` chain accumulates integer-ns truncation — 90 ticks of
  // 33'333'333 ns land 30 ns short of 3 s and a 91st frame sneaks in.)
  std::function<void()> frame_tick = [&] {
    const auto fid = static_cast<std::uint32_t>(ledger.frames);
    const trace::TraceContext ctx =
        observers.tracer ? observers.tracer->new_trace() : trace::TraceContext{};
    frame_ctx.emplace(fid, ctx);
    emitter.emit(sim.now(), trace::EventKind::kFrameCapture, ctx, fid, kFrameBytes);
    submit_frame();
    ++ledger.frames;
    const sim::Time next =
        sim::from_seconds(static_cast<double>(ledger.frames) / kFps);
    if (next < cfg.duration) sim.at(next, frame_tick);
  };
  frame_tick();

  // TCP completion poll: the sink has no frame notion, so watch its byte
  // counter on a 1 ms clock (quantizes latency upward by <=1 ms, identically
  // for all three TCP flavors).
  std::function<void()> tcp_poll = [&] {
    while (!tcp_frames.empty() && tcp_rx->received_bytes() >= tcp_frames.front().boundary) {
      const TcpFrame& front = tcp_frames.front();
      score(front.frame_id, true, sim.now() - front.submitted_at);
      tcp_frames.pop_front();
    }
    sim.after(sim::milliseconds(1), tcp_poll);
  };
  if (tcp_rx) tcp_poll();

  // Drain grace so frames in flight at the cutoff get to classify (matches
  // the receivers' 250 ms expiry sweeps).
  sim.run_until(cfg.duration + sim::milliseconds(300));

  // Frames the transports never classified (shed at the sender, stream bytes
  // still buffered at the cutoff) are incomplete by subtraction in the
  // ledger; mirror that verdict into the telemetry stream so the sampler
  // and SLO see every submitted frame exactly once.
  while (!frame_ctx.empty()) score(frame_ctx.begin()->first, false, 0);
  ARNET_CHECK(ledger.consistent(), "shootout cell ", cfg.name(), ": ", ledger.frames,
              " frames, ", ledger.results, " results, ", ledger.deadline_misses, " misses");

  ShootoutCellResult r;
  static_cast<sim::LatencySummary&>(r) = ledger.summary();
  r.name = cfg.name();
  r.frames_sent = ledger.frames;
  r.frames_on_time = ledger.results - ledger.deadline_misses;
  r.frames_late = ledger.deadline_misses;
  r.frames_incomplete = ledger.frames - ledger.results;
  r.hit_ratio = ledger.frames > 0 ? static_cast<double>(r.frames_on_time) / ledger.frames : 0.0;
  r.sim_seconds = sim::to_seconds(cfg.duration);
  std::int64_t app_bytes = tcp_rx ? tcp_rx->received_bytes() : ledger.results * kFrameBytes;
  r.goodput_mbps = r.sim_seconds > 0 ? app_bytes * 8.0 / 1e6 / r.sim_seconds : 0.0;
  r.sim_events = static_cast<std::int64_t>(sim.events_executed());
  return r;
}

}  // namespace arnet::core
