#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arnet/net/link.hpp"
#include "arnet/net/network.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"

namespace arnet::wireless {

/// mmWave blockage process for 5G NR: a two-state (clear/blocked) renewal
/// process with exponential holding times. While blocked, link capacity
/// collapses to `rate_factor` of the fading-process value and the one-way
/// delay gains `extra_delay` (beam re-acquisition / fallback). The schedule
/// is drawn from a dedicated forked substream of the modulator's rng, so the
/// same seed always produces the same burst schedule and profiles without
/// blockage draw exactly what they drew before this existed.
struct NrBlockage {
  bool enabled = false;
  double mean_clear_s = 4.0;     ///< mean time between bursts
  double mean_blocked_s = 0.25;  ///< mean burst duration
  double rate_factor = 0.05;     ///< capacity multiplier while blocked
  sim::Time extra_delay = sim::milliseconds(20);
};

/// Stochastic access-network profile: everyday (not theoretical) behavior of
/// a radio technology, calibrated to the measurements the paper cites
/// (OpenSignal / SpeedTest / Xu et al., §IV-A).
struct CellularProfile {
  std::string name;
  double mean_down_bps;
  double mean_up_bps;
  /// Log-normal sigma of the rate process ("abrupt changes of several
  /// orders of magnitude" for HSPA+).
  double rate_sigma;
  sim::Time base_one_way_delay;   ///< per-direction radio+core latency
  sim::Time delay_jitter;         ///< stddev of the delay process
  sim::Time spike_extra_delay;    ///< occasional latency spike magnitude
  double spike_probability;       ///< per-update chance of a spike
  std::size_t uplink_queue_packets;  ///< oversized on real cellular uplinks
  /// mmWave blockage bursts (5G NR only; disabled for the other profiles).
  NrBlockage blockage;

  /// HSPA+ as measured: ~0.7-3.5 Mb/s down, ~1.5 Mb/s up, 110-130 ms RTT,
  /// spikes to 800 ms (Xu et al. Singapore study).
  static CellularProfile hspa_plus();
  /// LTE as measured: ~12-20 Mb/s down, ~8 Mb/s up, 66-85 ms RTT.
  static CellularProfile lte();
  /// 5G per the NGMN white paper AR KPIs: 300/50 Mb/s, 10 ms end-to-end.
  static CellularProfile fiveg_kpi();
  /// 5G NR as deployed: very high but volatile rate, low base latency, and
  /// seeded mmWave blockage bursts that briefly collapse the link — the
  /// regime where BBR/QUIC-style transports behave qualitatively differently
  /// from loss-based TCP (PAPERS.md: "Evaluating Transport Protocols on 5G").
  static CellularProfile nr_5g();
};

/// Attaches to an uplink/downlink Link pair and modulates their rate and
/// delay every 100 ms with a log-normal rate process plus delay jitter and
/// spikes, turning static point-to-point pipes into everyday cellular
/// behavior.
class CellularModulator {
 public:
  CellularModulator(sim::Simulator& sim, sim::Rng rng, net::Link& uplink, net::Link& downlink,
                    CellularProfile profile);

  void start();
  void stop() { running_ = false; }

  double current_down_bps() const { return down_bps_; }
  double current_up_bps() const { return up_bps_; }
  sim::Time current_one_way_delay() const { return delay_; }

  /// Blockage observables (meaningful when profile.blockage.enabled).
  bool blockage_active() const { return blocked_; }
  std::int64_t blockage_bursts() const { return blockage_bursts_; }
  /// Toggle times, alternating enter/leave; the determinism contract is that
  /// equal seeds produce byte-equal schedules.
  const std::vector<sim::Time>& blockage_log() const { return blockage_log_; }

 private:
  void tick();
  void toggle_blockage();
  void apply();

  sim::Simulator& sim_;
  sim::Rng rng_;
  /// Dedicated substream for the blockage schedule (forked only when the
  /// profile enables blockage, so legacy profiles' draw sequences — and thus
  /// their fingerprints — are unchanged).
  std::optional<sim::Rng> blockage_rng_;
  net::Link& uplink_;
  net::Link& downlink_;
  CellularProfile profile_;
  bool running_ = false;
  double down_bps_ = 0;
  double up_bps_ = 0;
  sim::Time delay_ = 0;
  bool blocked_ = false;
  std::int64_t blockage_bursts_ = 0;
  std::vector<sim::Time> blockage_log_;
};

/// Builds a client<->core duplex pair shaped like `profile` inside `net`,
/// returning the modulator that keeps it moving. The caller owns the links
/// via the network; the modulator must be kept alive and started.
struct CellularAttachment {
  net::Link* uplink;
  net::Link* downlink;
  std::unique_ptr<CellularModulator> modulator;
};

CellularAttachment attach_cellular(net::Network& net, net::NodeId client, net::NodeId tower,
                                   const CellularProfile& profile, std::uint64_t seed);

}  // namespace arnet::wireless
