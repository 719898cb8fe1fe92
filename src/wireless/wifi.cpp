#include "arnet/wireless/wifi.hpp"

#include <utility>

namespace arnet::wireless {

namespace {
// 802.11a/g OFDM MAC/PHY timing.
constexpr sim::Time kDifs = sim::microseconds(34);
constexpr sim::Time kSifs = sim::microseconds(16);
constexpr sim::Time kSlot = sim::microseconds(9);
constexpr std::uint32_t kCwMinSlots = 15;  ///< mean backoff = cw_min/2 slots
constexpr sim::Time kPhyPreamble = sim::microseconds(20);
constexpr sim::Time kAckDuration = sim::microseconds(44);  ///< ACK at control rate
constexpr std::int32_t kMacHeaderBytes = 34;
constexpr std::uint32_t kMaxAttempts = 7;  ///< 802.11 retry limit
constexpr double kApPhyBps = 54e6;
}  // namespace

sim::Time frame_airtime(std::int32_t bytes, double phy_bps) {
  sim::Time backoff = kSlot * (kCwMinSlots / 2);
  sim::Time payload = sim::transmission_delay(bytes + kMacHeaderBytes, phy_bps);
  return kDifs + backoff + kPhyPreamble + payload + kSifs + kAckDuration;
}

WifiCell::WifiCell(sim::Simulator& sim, sim::Rng rng, Config cfg)
    : sim_(sim), rng_(std::move(rng)), cfg_(cfg) {
  Entity ap;
  ap.name = "ap";
  ap.phy_bps = kApPhyBps;
  entities_.emplace(kApId, std::move(ap));
}

std::uint32_t WifiCell::add_station(double phy_bps, std::string name) {
  std::uint32_t id = next_station_++;
  Entity e;
  e.name = std::move(name);
  e.phy_bps = phy_bps;
  entities_.emplace(id, std::move(e));
  return id;
}

void WifiCell::set_phy_rate(std::uint32_t station, double phy_bps) {
  entities_.at(station).phy_bps = phy_bps;
}

void WifiCell::set_sink(std::uint32_t entity, Sink sink) {
  entities_.at(entity).sink = std::move(sink);
}

void WifiCell::attach(const trace::Telemetry& telemetry, std::string entity) {
  metrics_ = telemetry.metrics;
  trace_ = trace::Emitter(telemetry.tracer, entity);
  obs_entity_ = std::move(entity);
  drop_metrics_ = {};
  for (auto& [id, e] : entities_) {
    e.rate_metric.reset();
    e.airtime_metric.reset();
    e.rx_bytes_metric.reset();
    e.rx_packets_metric.reset();
  }
}

void WifiCell::drop_frame(const net::Packet& p, DropPath path) {
  ++dropped_;
  const char* reason = kDropReasons[path];
  trace_.emit(sim_.now(), trace::EventKind::kDrop, p.trace, p.uid, p.size_bytes, reason);
  if (metrics_) {
    drop_metrics_[path]
        .get(*metrics_,
             [&] { return obs::MetricId{std::string("wifi.drop.") + reason, obs_entity_}; })
        .add();
  }
}

obs::MetricId WifiCell::entity_metric(const char* name, std::uint32_t id, const Entity& e) const {
  return {name, obs_entity_ + "/" + e.name + ":" + std::to_string(id)};
}

void WifiCell::publish_obs(std::uint32_t id, Entity& e) {
  if (!metrics_) return;
  e.rate_metric.get(*metrics_, [&] { return entity_metric("wifi.sta_rate_bps", id, e); })
      .set(e.phy_bps);
  if (sim_.now() > 0) {
    e.airtime_metric.get(*metrics_, [&] { return entity_metric("wifi.airtime_share", id, e); })
        .set(sim::to_seconds(e.airtime) / sim::to_seconds(sim_.now()));
  }
}

void WifiCell::send(std::uint32_t from, std::uint32_t to, net::Packet p) {
  Entity& e = entities_.at(from);
  if (e.queue.size() >= cfg_.queue_packets) {
    drop_frame(p, kQueueFull);
    return;
  }
  trace_.emit(sim_.now(), trace::EventKind::kEnqueue, p.trace, p.uid, p.size_bytes);
  e.queue.emplace_back(to, std::move(p));
  try_start_transmission();
}

void WifiCell::try_start_transmission() {
  if (busy_) return;
  // DCF fairness: every backlogged entity wins the contention equally often.
  // Round-robin over entity ids approximates that without simulating
  // per-slot backoff.
  const std::size_t n = entities_.size();
  Entity* winner = nullptr;
  std::uint32_t winner_id = 0;
  for (std::size_t step = 0; step < n; ++step) {
    rr_cursor_ = (rr_cursor_ + 1) % n;
    auto it = entities_.begin();
    std::advance(it, rr_cursor_);
    if (!it->second.queue.empty()) {
      winner = &it->second;
      winner_id = it->first;
      break;
    }
  }
  if (!winner) return;

  busy_ = true;
  auto [to, pkt] = std::move(winner->queue.front());
  winner->queue.pop_front();
  trace_.emit(sim_.now(), trace::EventKind::kTxStart, pkt.trace, pkt.uid, pkt.size_bytes);

  // Occupancy = airtime of the frame at the sender's PHY rate, plus full
  // retries on corruption (up to the retry limit).
  sim::Time occupancy = frame_airtime(pkt.size_bytes, winner->phy_bps);
  bool delivered = true;
  if (cfg_.frame_loss > 0.0) {
    std::uint32_t attempts = 1;
    while (rng_.bernoulli(cfg_.frame_loss) && attempts < kMaxAttempts) {
      ++attempts;
      occupancy += frame_airtime(pkt.size_bytes, winner->phy_bps);
    }
    if (attempts >= kMaxAttempts && rng_.bernoulli(cfg_.frame_loss)) {
      delivered = false;
      drop_frame(pkt, kRetryLimit);
    }
  }

  winner->airtime += occupancy;
  sim_.after(occupancy, [this, winner_id, to, delivered, p = std::move(pkt)]() mutable {
    busy_ = false;
    if (auto it = entities_.find(winner_id); it != entities_.end()) {
      publish_obs(winner_id, it->second);
    }
    if (delivered) finish_transmission(winner_id, to, std::move(p));
    try_start_transmission();
  });
}

void WifiCell::finish_transmission(std::uint32_t from, std::uint32_t to, net::Packet p) {
  // Station-to-station frames relay via the AP: requeue from the AP, paying
  // a second medium occupancy, as in infrastructure mode.
  if (from != kApId && to != kApId) {
    Entity& ap = entities_.at(kApId);
    if (ap.queue.size() >= cfg_.queue_packets) {
      drop_frame(p, kRelayQueueFull);
      return;
    }
    ap.queue.emplace_back(to, std::move(p));
    return;
  }
  auto it = entities_.find(to);
  if (it == entities_.end()) return;
  trace_.emit(sim_.now(), trace::EventKind::kRx, p.trace, p.uid, p.size_bytes);
  it->second.delivered_bytes += p.size_bytes;
  ++it->second.delivered_packets;
  if (metrics_) {
    Entity& e = it->second;
    e.rx_bytes_metric.get(*metrics_, [&] { return entity_metric("wifi.delivered_bytes", to, e); })
        .add(p.size_bytes);
    e.rx_packets_metric
        .get(*metrics_, [&] { return entity_metric("wifi.delivered_packets", to, e); })
        .add();
  }
  if (it->second.sink) it->second.sink(std::move(p), from);
}

std::int64_t WifiCell::delivered_bytes(std::uint32_t entity) const {
  return entities_.at(entity).delivered_bytes;
}

std::int64_t WifiCell::delivered_packets(std::uint32_t entity) const {
  return entities_.at(entity).delivered_packets;
}

}  // namespace arnet::wireless
