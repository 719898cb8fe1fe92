#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "arnet/fleet/admission.hpp"
#include "arnet/fleet/cell.hpp"
#include "arnet/fleet/population.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/time.hpp"

namespace arnet::obs {
class MetricsRegistry;
}
namespace arnet::slo {
class SloTracker;
}

namespace arnet::fluid {

/// Mean-field (fluid) counterpart of the packet-level fleet::Fleet cell: the
/// per-cell session population advances as a flow aggregate on a fixed tick
/// instead of per-frame events. Per tick the stepper integrates
///
///   dN/dt = a(t) - N / L              (session mass; a(t) = admitted rate)
///   dQ/dt = lambda_f(t) - mu(t)       (frame backlog; Q >= 0)
///
/// where lambda_f = N * fps is the offered frame rate and mu comes from the
/// batched service curve service(b) = setup + w + marginal*(b-1)*w evaluated
/// at the tick's expected batch occupancy. Latency is reconstructed per tick
/// from a deterministic grid of quantile probes (device class x RTT quantile
/// x batch-formation-wait quantile) shifted by the shared backlog wait, so
/// the cell still produces full latency distributions (p50/p99 from a private
/// fine-bin mass histogram, folded into the mergeable obs::Histogram at
/// finish()), deadline-miss counts for the SLO tracker, and
/// live samples for an embedded fleet::AdmissionController — the same
/// admission interface the packet model uses, driving per-tick
/// admit/downgrade/reject routing of arriving session mass.
///
/// Everything is pure double arithmetic in tick order: a cell's outputs are
/// a pure function of its config (bit-identical across serial and --jobs
/// sweeps), and a simulated day costs ~86k ticks instead of ~10^8 events.
///
/// What the cell is comes from fleet::EdgeCell, the description the packet
/// model reads too; the members below only say how to integrate and report.
struct FluidConfig : fleet::EdgeCell {
  /// Integration step. 10 ms tracks the packet model through the knee for
  /// validation; 1 s is ample for city-scale diurnal runs (the fastest
  /// population dynamics are session lifetimes of minutes).
  sim::Time tick = sim::milliseconds(100);
  sim::Time duration = sim::seconds(30);
  /// Latency-probe grid resolution: RTT quantiles x formation-wait quantiles
  /// per device class. 4x4 for validation-grade distributions, 2x2 for city
  /// cells where per-tick cost dominates.
  int rtt_quantiles = 4;
  int wait_quantiles = 4;
  /// Observability (optional; must outlive the cell). The histogram is
  /// published once at the end of run() via Histogram::restore.
  obs::MetricsRegistry* metrics = nullptr;
  slo::SloTracker* slo = nullptr;
  std::string entity = "fluid";
};

/// Occupancy time-series resolution (slots over FluidConfig::duration);
/// aggregating these across cells yields the city's concurrent-session curve.
inline constexpr int kOccupancySlots = 96;

/// One fluid-cell run: the outcome both models share, plus the fluid model's
/// own readings. Session and frame counts are rounded flow mass.
struct FluidResult : fleet::CellOutcome {
  std::int64_t frames = 0;       ///< completed (served) frame mass
  double peak_sessions = 0.0;    ///< max concurrent session mass
  /// Largest concurrency whose tick p99 met mar::kFrameDeadline (reporting,
  /// not control).
  double knee_sessions = 0.0;
  sim::Time first_breach = -1;   ///< first tick whose p99 broke it (-1 = never)
  double backlog_end = 0.0;      ///< frames still queued at the horizon
  std::int64_t ticks = 0;
  double sim_seconds = 0.0;
  /// Time-mean concurrent sessions per occupancy slot (kOccupancySlots
  /// entries); summable across cells slot-by-slot.
  std::vector<double> occupancy;
};

class FluidCell {
 public:
  explicit FluidCell(FluidConfig cfg);

  FluidCell(const FluidCell&) = delete;
  FluidCell& operator=(const FluidCell&) = delete;

  /// Advance one tick (exposed for the FluidStep micro-bench and tests).
  void step();

  sim::Time now() const { return ticks_ * cfg_.tick; }
  double sessions() const { return n_full_ + n_deg_; }
  double backlog() const { return backlog_; }
  const fleet::AdmissionController& admission() const { return admission_; }
  const FluidConfig& config() const { return cfg_; }

  /// Step to the configured horizon, publish instruments ("fluid.*" under
  /// config().entity) and SLO batches as configured, and summarize.
  FluidResult run();

  /// Summarize current state without stepping further (run() = steps + this).
  FluidResult finish();

 private:
  struct Probe {
    double weight = 0.0;    ///< fraction of frame mass this probe represents
    double base_ms = 0.0;   ///< device stage + RTT + serialization (fixed)
    double wait_frac = 0.0; ///< position inside the batch-formation window
  };

  void build_probes();
  double service_ms(double occupancy) const;
  void record_mass(double latency_ms, double mass);

  FluidConfig cfg_;
  sim::Rng arrivals_;  ///< MMPP dwell draws, fleet::arrival_stream(seed)
  fleet::AdmissionController admission_;

  // Precomputed aggregates.
  double server_scale_ = 1.0;        ///< server profile compute scale
  double mu_max_ = 1.0;              ///< max drain rate, frames/s, all servers
  int lanes_ = 1;                    ///< total executor lanes
  double lifetime_s_ = 1.0;          ///< mean session lifetime L (floored)
  double decay_ = 1.0;               ///< per-tick session survival e^{-dt/L}
  double stoch_exponent_ = 2.0;      ///< Allen-Cunneen sqrt(2 (lanes + 1))
  std::int64_t total_ticks_ = 1;     ///< ticks to the configured horizon
  std::vector<Probe> probes_;
  std::vector<std::pair<double, double>> sorted_scratch_;  ///< (latency, weight)

  // Population / serving state.
  std::int64_t ticks_ = 0;
  fleet::MmppPhase phase_;
  double n_full_ = 0.0;
  double n_deg_ = 0.0;
  double backlog_ = 0.0;  ///< queued frame mass
  /// FIFO parcels of queued mass as (entry mid-tick, seconds; mass): served
  /// mass drains from the front so the recorded queueing wait is the sojourn
  /// of the frames actually completing this tick, not the (backlog / mu)
  /// virtual wait of frames arriving now — under a growing backlog those
  /// differ by a factor of lambda/mu, exactly the horizon semantics the
  /// packet model's completed-frames-only accounting uses.
  std::deque<std::pair<double, double>> queue_;

  // Accounting.
  double arrivals_mass_ = 0.0, admitted_mass_ = 0.0;
  double downgraded_mass_ = 0.0, rejected_mass_ = 0.0;
  double served_mass_ = 0.0, miss_mass_ = 0.0;
  double good_carry_ = 0.0, miss_carry_ = 0.0;  ///< SLO integer-emission remainders
  double peak_sessions_ = 0.0, knee_sessions_ = 0.0;
  sim::Time first_breach_ = -1;
  std::vector<double> occupancy_;  ///< per-slot accumulated session mass

  // Two-tier fine-grained latency mass histogram: 0.1 ms bins below 1 s,
  // 10 ms bins to 60 s, one overflow bin. Fine enough that reported
  // quantiles are exact to well under the validation tolerance (the obs
  // histogram's log buckets are only ~15% accurate), cheap enough to live
  // per cell; folded into the mergeable obs::Histogram at finish().
  static constexpr int kFineBins = 10000;   ///< [0, 1000) ms at 0.1 ms
  static constexpr int kCoarseBins = 5900;  ///< [1000, 60000) ms at 10 ms
  std::vector<double> lat_mass_;
  double lat_sum_ = 0.0;
  double lat_min_ = 0.0, lat_max_ = 0.0;
  bool lat_any_ = false;

  static int lat_bin(double ms);
  static double lat_bin_mid(int bin);
  double lat_quantile(double p) const;
};

}  // namespace arnet::fluid
