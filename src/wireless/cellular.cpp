#include "arnet/wireless/cellular.hpp"

#include <algorithm>
#include <cmath>

namespace arnet::wireless {

namespace {
constexpr sim::Time kUpdateInterval = sim::milliseconds(100);
}  // namespace

CellularProfile CellularProfile::hspa_plus() {
  CellularProfile p;
  p.name = "HSPA+";
  p.mean_down_bps = 3.0e6;
  p.mean_up_bps = 1.4e6;
  p.rate_sigma = 0.9;  // order-of-magnitude swings
  p.base_one_way_delay = sim::milliseconds(55);
  p.delay_jitter = sim::milliseconds(18);
  p.spike_extra_delay = sim::milliseconds(340);  // ~800 ms RTT spikes
  p.spike_probability = 0.02;
  p.uplink_queue_packets = 1000;
  return p;
}

CellularProfile CellularProfile::lte() {
  CellularProfile p;
  p.name = "LTE";
  p.mean_down_bps = 18.0e6;
  p.mean_up_bps = 8.0e6;
  p.rate_sigma = 0.45;
  p.base_one_way_delay = sim::milliseconds(34);
  p.delay_jitter = sim::milliseconds(8);
  p.spike_extra_delay = sim::milliseconds(120);
  p.spike_probability = 0.01;
  p.uplink_queue_packets = 1000;
  return p;
}

CellularProfile CellularProfile::fiveg_kpi() {
  CellularProfile p;
  p.name = "5G (NGMN AR KPI)";
  p.mean_down_bps = 300.0e6;
  p.mean_up_bps = 50.0e6;
  p.rate_sigma = 0.15;
  p.base_one_way_delay = sim::milliseconds(5);
  p.delay_jitter = sim::milliseconds(1);
  p.spike_extra_delay = sim::milliseconds(10);
  p.spike_probability = 0.005;
  p.uplink_queue_packets = 500;
  return p;
}

CellularProfile CellularProfile::nr_5g() {
  CellularProfile p;
  p.name = "5G NR";
  p.mean_down_bps = 600.0e6;
  p.mean_up_bps = 120.0e6;
  p.rate_sigma = 0.35;  // beamforming makes the rate process jumpy
  p.base_one_way_delay = sim::milliseconds(4);
  p.delay_jitter = sim::from_milliseconds(1.5);
  p.spike_extra_delay = sim::milliseconds(15);
  p.spike_probability = 0.008;
  p.uplink_queue_packets = 500;
  p.blockage.enabled = true;
  return p;
}

CellularModulator::CellularModulator(sim::Simulator& sim, sim::Rng rng, net::Link& uplink,
                                     net::Link& downlink, CellularProfile profile)
    : sim_(sim),
      rng_(std::move(rng)),
      uplink_(uplink),
      downlink_(downlink),
      profile_(std::move(profile)),
      down_bps_(profile_.mean_down_bps),
      up_bps_(profile_.mean_up_bps),
      delay_(profile_.base_one_way_delay) {
  if (profile_.blockage.enabled) blockage_rng_ = rng_.fork("nr-blockage");
}

void CellularModulator::start() {
  running_ = true;
  if (blockage_rng_) {
    // Arm the first clear->blocked transition; subsequent toggles rearm
    // themselves at exact (not tick-quantized) times.
    sim::Time first = sim::from_seconds(
        blockage_rng_->exponential(profile_.blockage.mean_clear_s));
    sim_.after(first, [this] { toggle_blockage(); });
  }
  tick();
}

void CellularModulator::toggle_blockage() {
  if (!running_) return;
  const NrBlockage& b = profile_.blockage;
  blocked_ = !blocked_;
  if (blocked_) ++blockage_bursts_;
  blockage_log_.push_back(sim_.now());
  apply();
  double hold_s = blocked_ ? blockage_rng_->exponential(b.mean_blocked_s)
                           : blockage_rng_->exponential(b.mean_clear_s);
  sim_.after(sim::from_seconds(hold_s), [this] { toggle_blockage(); });
}

void CellularModulator::tick() {
  if (!running_) return;
  const CellularProfile& pr = profile_;

  // Log-normal multiplicative rate noise with mean-reversion: blend the
  // previous value toward a fresh sample so rates wander rather than jump
  // i.i.d. every tick.
  auto sample_rate = [&](double mean) {
    double target = mean * std::exp(rng_.normal(-0.5 * pr.rate_sigma * pr.rate_sigma,
                                                pr.rate_sigma));
    return std::max(32e3, target);
  };
  down_bps_ = 0.6 * down_bps_ + 0.4 * sample_rate(pr.mean_down_bps);
  up_bps_ = 0.6 * up_bps_ + 0.4 * sample_rate(pr.mean_up_bps);

  sim::Time jitter = sim::from_milliseconds(
      std::abs(rng_.normal(0.0, sim::to_milliseconds(pr.delay_jitter))));
  delay_ = pr.base_one_way_delay + jitter;
  if (pr.spike_probability > 0 && rng_.bernoulli(pr.spike_probability)) {
    delay_ += pr.spike_extra_delay;
  }

  apply();

  sim_.after(kUpdateInterval, [this] { tick(); });
}

void CellularModulator::apply() {
  const NrBlockage& b = profile_.blockage;
  double rate_mult = blocked_ ? b.rate_factor : 1.0;
  sim::Time extra = blocked_ ? b.extra_delay : 0;
  uplink_.set_rate(std::max(32e3, up_bps_ * rate_mult));
  uplink_.set_delay(delay_ + extra);
  downlink_.set_rate(std::max(32e3, down_bps_ * rate_mult));
  downlink_.set_delay(delay_ + extra);
}

CellularAttachment attach_cellular(net::Network& net, net::NodeId client, net::NodeId tower,
                                   const CellularProfile& profile, std::uint64_t seed) {
  net::Link::Config up;
  up.rate_bps = profile.mean_up_bps;
  up.delay = profile.base_one_way_delay;
  up.queue_packets = profile.uplink_queue_packets;
  up.name = profile.name + "-up";
  net::Link::Config down;
  down.rate_bps = profile.mean_down_bps;
  down.delay = profile.base_one_way_delay;
  // eNB downlink buffers are deep in practice (RLC buffering), which also
  // absorbs the rate swings of the fading process.
  down.queue_packets = 750;
  down.name = profile.name + "-down";
  auto [ul, dl] = net.connect(client, tower, std::move(up), std::move(down));

  auto mod = std::make_unique<CellularModulator>(net.sim(), sim::Rng(seed), *ul, *dl, profile);
  return {ul, dl, std::move(mod)};
}

}  // namespace arnet::wireless
