#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "arnet/net/packet.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/sim/time.hpp"
#include "arnet/trace/telemetry.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::wireless {

/// Mean medium occupancy of one `bytes`-sized 802.11 frame sent at
/// `phy_bps`: DIFS + mean backoff + preamble + payload + SIFS + ACK, at
/// 802.11a/g OFDM timing (constants in wifi.cpp). The absolute values matter
/// less than the structure: every frame pays fixed airtime plus payload
/// serialization at the *station's own* PHY rate.
sim::Time frame_airtime(std::int32_t bytes, double phy_bps);

/// Shared-medium 802.11 DCF cell: one AP plus stations, each with its own
/// PHY rate. DCF gives every backlogged transmitter an (approximately) equal
/// share of transmission *opportunities* — not airtime — which is exactly the
/// mechanism behind the performance anomaly of Fig. 2 (Heusse et al. 2003):
/// one slow station drags every station's throughput down to roughly the
/// slow station's level.
///
/// The cell is deliberately standalone (it does not pretend to be a
/// point-to-point Link): frames are handed in per station and delivered to
/// per-entity sinks. kApId addresses the AP, which runs at 54 Mb/s and
/// contends for the medium like any station. A corrupted frame is retried
/// up to 7 attempts.
class WifiCell {
 public:
  static constexpr std::uint32_t kApId = 0;

  using Sink = std::function<void(net::Packet&&, std::uint32_t from)>;

  struct Config {
    std::size_t queue_packets = 200;
    double frame_loss = 0.0;  ///< per-attempt corruption probability
  };

  WifiCell(sim::Simulator& sim, sim::Rng rng, Config cfg);

  /// Register a station; returns its id (>= 1).
  std::uint32_t add_station(double phy_bps, std::string name = "sta");

  /// Change a station's PHY rate (rate adaptation as it moves).
  void set_phy_rate(std::uint32_t station, double phy_bps);

  /// Deliver sink for frames addressed to `entity` (station id or kApId).
  void set_sink(std::uint32_t entity, Sink sink);

  /// Enqueue a frame from `from` to `to` (station->AP, AP->station, or
  /// station->station which relays through the AP, costing double airtime).
  void send(std::uint32_t from, std::uint32_t to, net::Packet p);

  std::int64_t delivered_bytes(std::uint32_t entity) const;
  std::int64_t delivered_packets(std::uint32_t entity) const;
  std::int64_t dropped_frames() const { return dropped_; }

  /// Observe the cell under `entity`, replacing any earlier attachment; the
  /// observers must outlive the cell. With a registry the cell publishes
  /// per-sender "wifi.airtime_share" gauges (fraction of elapsed time this
  /// sender held the medium, entity "<entity>/<name>:<id>"),
  /// "wifi.sta_rate_bps" gauges, delivered bytes/packets counters and
  /// "wifi.drop.<reason>" counters. With a tracer it records span events
  /// for every frame crossing the cell: kEnqueue on send(), kTxStart when
  /// the frame wins contention, kRx on delivery, and kDrop with a distinct
  /// reason for each discard path ("queue-full", "retry-limit",
  /// "relay-queue-full").
  void attach(const trace::Telemetry& telemetry, std::string entity);

 private:
  struct Entity {
    std::string name;
    double phy_bps = 54e6;
    std::deque<std::pair<std::uint32_t, net::Packet>> queue;  ///< (dst, frame)
    Sink sink;
    std::int64_t delivered_bytes = 0;
    std::int64_t delivered_packets = 0;
    sim::Time airtime = 0;  ///< cumulative medium occupancy as sender
    /// Instruments under this entity's label, each resolved on first touch.
    obs::Handle<obs::Gauge> rate_metric, airtime_metric;
    obs::Handle<obs::Counter> rx_bytes_metric, rx_packets_metric;
  };

  /// The cell's discard paths, indexing kDropReasons and drop_metrics_.
  enum DropPath : std::uint8_t { kQueueFull, kRetryLimit, kRelayQueueFull, kDropPaths };
  static constexpr std::array<const char*, kDropPaths> kDropReasons = {
      "queue-full", "retry-limit", "relay-queue-full"};

  void try_start_transmission();
  void finish_transmission(std::uint32_t from, std::uint32_t to, net::Packet p);
  void drop_frame(const net::Packet& p, DropPath path);
  obs::MetricId entity_metric(const char* name, std::uint32_t id, const Entity& e) const;
  void publish_obs(std::uint32_t id, Entity& e);

  sim::Simulator& sim_;
  sim::Rng rng_;
  Config cfg_;
  std::map<std::uint32_t, Entity> entities_;
  std::uint32_t next_station_ = 1;
  bool busy_ = false;
  std::uint32_t rr_cursor_ = 0;  ///< round-robin fairness over entity ids
  std::int64_t dropped_ = 0;

  // Observability (attach): null when no registry is attached.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string obs_entity_;
  std::array<obs::Handle<obs::Counter>, kDropPaths> drop_metrics_;

  trace::Emitter trace_;  ///< inert until a tracer is attached
};

}  // namespace arnet::wireless
