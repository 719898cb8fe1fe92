#include "arnet/fluid/fluid.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "arnet/check/assert.hpp"
#include "arnet/mar/cost_model.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/slo/slo.hpp"

namespace arnet::fluid {

namespace {

/// Weighted quantiles at the non-decreasing targets `ps` over (value,
/// weight) pairs sorted by value with total weight 1, in one walk: each
/// result is the first value whose running weight reaches its target (the
/// last value if none does). The running sum is accumulated in list order
/// exactly as a separate scan per target would, and never decreases, so the
/// results are bit-identical to those scans.
template <std::size_t N>
std::array<double, N> quantiles_sorted(const std::vector<std::pair<double, double>>& sorted,
                                       const std::array<double, N>& ps) {
  std::array<double, N> out{};
  std::size_t j = 0;
  double cum = sorted.front().second;
  for (std::size_t i = 0; i < N; ++i) {
    while (cum < ps[i] && j + 1 < sorted.size()) cum += sorted[++j].second;
    out[i] = sorted[j].first;
  }
  return out;
}

/// Admission stencil: 32 quantile points per tick, the tail point at 0.995
/// so the windowed p99 projection sees the tail, not just the body.
constexpr std::array<double, 32> kStencil = [] {
  std::array<double, 32> q{};
  for (std::size_t i = 0; i + 1 < q.size(); ++i) {
    q[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(q.size());
  }
  q.back() = 0.995;
  return q;
}();

/// A frame misses above the deadline, and a tick whose p99 is above it is
/// past the knee.
constexpr double kDeadlineMs = sim::to_milliseconds(mar::kFrameDeadline);
/// The app's reference server cost per frame.
constexpr double kServerWorkMs = sim::to_milliseconds(fleet::kApp.server_cost);

}  // namespace

FluidCell::FluidCell(FluidConfig cfg)
    : cfg_(std::move(cfg)),
      arrivals_(fleet::arrival_stream(cfg_.seed)),
      admission_(cfg_.admission) {
  ARNET_CHECK(cfg_.servers >= 1, "fluid cell needs at least one server");
  ARNET_CHECK(cfg_.tick > 0, "fluid tick must be positive");
  ARNET_CHECK(cfg_.duration >= cfg_.tick, "fluid duration shorter than one tick");
  ARNET_CHECK(cfg_.rtt_quantiles >= 1 && cfg_.wait_quantiles >= 1,
              "fluid probe grid needs at least 1x1");

  server_scale_ = mar::device_profile(fleet::kServerClass).compute_scale;
  lanes_ = static_cast<int>(cfg_.servers) * std::max(1, cfg_.batch.executors);
  const double b_max = cfg_.batch.enabled ? fleet::kMaxBatch : 1;
  mu_max_ = static_cast<double>(lanes_) * b_max / (service_ms(b_max) / 1000.0);

  lifetime_s_ = std::max(1e-9, cfg_.population.mean_lifetime_s);
  decay_ = std::exp(-sim::to_seconds(cfg_.tick) / lifetime_s_);
  stoch_exponent_ = std::sqrt(2.0 * static_cast<double>(lanes_ + 1));
  total_ticks_ = std::max<std::int64_t>(1, (cfg_.duration + cfg_.tick - 1) / cfg_.tick);

  build_probes();
  occupancy_.assign(kOccupancySlots, 0.0);
  lat_mass_.assign(kFineBins + kCoarseBins + 1, 0.0);
  sorted_scratch_.reserve(probes_.size());
}

double FluidCell::service_ms(double occupancy) const {
  // The EdgeServer batch curve: setup + w_max + marginal * (w_sum - w_max),
  // at the app's item cost and the server's compute scale.
  const double setup_ms = sim::to_milliseconds(cfg_.batch.setup);
  const double b = std::max(1.0, occupancy);
  return server_scale_ *
         (setup_ms + kServerWorkMs * (1.0 + cfg_.batch.marginal * (b - 1.0)));
}

void FluidCell::build_probes() {
  // RTT distribution of a uniformly placed user against the (cycled) server
  // sites. The balancer picks by queue depth, not proximity, so the serving
  // site is effectively independent of the user's position — exactly a
  // uniform position vs uniform server draw.
  std::vector<double> rtt_ms;
  constexpr int kGrid = 48;
  rtt_ms.reserve(kGrid * kGrid * cfg_.servers);
  const double a = cfg_.population.area_km;
  for (int i = 0; i < kGrid; ++i) {
    for (int j = 0; j < kGrid; ++j) {
      const edge::GeoPoint pos{a * (i + 0.5) / kGrid, a * (j + 0.5) / kGrid};
      for (std::size_t s = 0; s < cfg_.servers; ++s) {
        rtt_ms.push_back(sim::to_milliseconds(fleet::site_rtt(cfg_, pos, s)));
      }
    }
  }
  // Only R order statistics of the sample are used: select each in rank
  // order on the part above the previous one instead of sorting it all.
  const int R = cfg_.rtt_quantiles;
  std::vector<double> rtt_q(static_cast<std::size_t>(R));
  auto above = rtt_ms.begin();
  for (int r = 0; r < R; ++r) {
    const double q = (r + 0.5) / R;
    const auto nth = rtt_ms.begin() + static_cast<std::ptrdiff_t>(std::min(
        rtt_ms.size() - 1, static_cast<std::size_t>(q * static_cast<double>(rtt_ms.size()))));
    std::nth_element(above, nth, rtt_ms.end());
    rtt_q[static_cast<std::size_t>(r)] = *nth;
    above = nth;
  }

  double dev_total = 0.0;
  for (const fleet::DeviceMixEntry& d : fleet::kDeviceMix) dev_total += d.weight;

  const int W = cfg_.wait_quantiles;
  for (const fleet::DeviceMixEntry& d : fleet::kDeviceMix) {
    const fleet::FrameCost cost = fleet::frame_cost(d.cls);
    const double stage_ms = sim::to_milliseconds(cost.device_stage);
    const double tx_ms = sim::to_milliseconds(cost.request_tx + cost.result_tx);
    for (int r = 0; r < R; ++r) {
      const double rtt = rtt_q[static_cast<std::size_t>(r)];
      for (int w = 0; w < W; ++w) {
        Probe p;
        p.weight = d.weight / dev_total / (R * W);
        p.base_ms = stage_ms + rtt + tx_ms;
        p.wait_frac = (w + 0.5) / W;
        probes_.push_back(p);
      }
    }
  }
}

int FluidCell::lat_bin(double ms) {
  if (!(ms > 0.0)) return 0;
  if (ms < 1000.0) return static_cast<int>(ms * 10.0);
  if (ms < 60000.0) return kFineBins + static_cast<int>((ms - 1000.0) / 10.0);
  return kFineBins + kCoarseBins;
}

double FluidCell::lat_bin_mid(int bin) {
  if (bin < kFineBins) return (bin + 0.5) * 0.1;
  if (bin < kFineBins + kCoarseBins) return 1000.0 + (bin - kFineBins + 0.5) * 10.0;
  return 60000.0;
}

void FluidCell::record_mass(double latency_ms, double mass) {
  lat_mass_[static_cast<std::size_t>(lat_bin(latency_ms))] += mass;
  lat_sum_ += latency_ms * mass;
  if (!lat_any_) {
    lat_min_ = lat_max_ = latency_ms;
    lat_any_ = true;
  } else {
    lat_min_ = std::min(lat_min_, latency_ms);
    lat_max_ = std::max(lat_max_, latency_ms);
  }
}

double FluidCell::lat_quantile(double p) const {
  if (served_mass_ <= 0.0) return 0.0;
  const double target = std::clamp(p, 0.0, 1.0) * served_mass_;
  double cum = 0.0;
  for (std::size_t i = 0; i < lat_mass_.size(); ++i) {
    const double m = lat_mass_[i];
    if (m <= 0.0) continue;
    if (cum + m >= target) {
      return std::clamp(lat_bin_mid(static_cast<int>(i)), lat_min_, lat_max_);
    }
    cum += m;
  }
  return lat_max_;
}

void FluidCell::step() {
  const fleet::PopulationConfig& pop = cfg_.population;
  const double dt = sim::to_seconds(cfg_.tick);
  const sim::Time t0 = ticks_ * cfg_.tick;
  const sim::Time t_mid = t0 + cfg_.tick / 2;
  const sim::Time t_end = t0 + cfg_.tick;

  // 1. MMPP state, advanced lazily on the cell's derived stream (the packet
  // model's dwell loop; trajectories differ because the packet model
  // interleaves dwell and interarrival draws).
  phase_.advance(t0, arrivals_, pop);

  // 2. Session arrivals this tick, routed by the live admission projection —
  // the same controller/interface the packet model consults per session,
  // here consulted once per tick for the tick's arriving mass.
  const double arrive = fleet::arrival_rate(pop, t_mid, phase_) * dt;
  arrivals_mass_ += arrive;
  const fleet::AdmissionDecision d = admission_.decide(t0, static_cast<std::uint64_t>(ticks_));
  double a_full = 0.0, a_deg = 0.0;
  switch (d) {
    case fleet::AdmissionDecision::kAdmit:
      a_full = arrive;
      admitted_mass_ += arrive;
      break;
    case fleet::AdmissionDecision::kDowngrade:
      a_deg = arrive;
      downgraded_mass_ += arrive;
      break;
    case fleet::AdmissionDecision::kReject:
      rejected_mass_ += arrive;
      break;
  }

  // 3. Population ODE, integrated exactly for a constant within-tick rate:
  // n(t+dt) = n e^{-dt/L} + a L (1 - e^{-dt/L}).
  n_full_ = n_full_ * decay_ + (a_full / dt) * lifetime_s_ * (1.0 - decay_);
  n_deg_ = n_deg_ * decay_ + (a_deg / dt) * lifetime_s_ * (1.0 - decay_);

  // 4. Offered frame flow and the serving backlog ODE.
  const double lam_f =
      (n_full_ + n_deg_ * fleet::kDowngradeFpsFactor) * fleet::kApp.fps;
  const double f_in = lam_f * dt;
  const double cap = mu_max_ * dt;
  const double served = std::min(backlog_ + f_in, cap);
  backlog_ += f_in - served;
  const double t_mid_s = sim::to_seconds(t_mid);
  if (f_in > 0.0) queue_.emplace_back(t_mid_s, f_in);
  // Drain the served mass FIFO and take its mass-weighted entry time; frames
  // entering and leaving within the same tick wait zero.
  double w_queue_ms = 0.0;
  if (served > 0.0) {
    double drained = served, enter_sum = 0.0;
    while (drained > 0.0 && !queue_.empty()) {
      auto& [enter, mass] = queue_.front();
      const double take = std::min(mass, drained);
      enter_sum += enter * take;
      drained -= take;
      mass -= take;
      if (mass <= 1e-12) queue_.pop_front();
    }
    const double accounted = served - drained;
    if (accounted > 0.0) {
      w_queue_ms = 1000.0 * std::max(0.0, t_mid_s - enter_sum / accounted);
    }
  }

  // 5. Batch occupancy and waits for the tick's latency reconstruction.
  const double b_max = cfg_.batch.enabled ? fleet::kMaxBatch : 1.0;
  const double lam_srv = lam_f / static_cast<double>(cfg_.servers);
  double b = 1.0, t_form_ms = 0.0;
  const bool saturated = backlog_ > static_cast<double>(lanes_) * b_max;
  if (cfg_.batch.enabled) {
    if (saturated) {
      // Queue never drains below a full batch: formation is instantaneous
      // and its cost is already inside the backlog wait.
      b = b_max;
    } else {
      const double fill = lam_srv * sim::to_seconds(fleet::kBatchTimeout);
      b = std::min(b_max, 1.0 + fill);
      t_form_ms = lam_srv > 0.0
                      ? std::min(sim::to_milliseconds(fleet::kBatchTimeout),
                                 1000.0 * b_max / lam_srv)
                      : sim::to_milliseconds(fleet::kBatchTimeout);
    }
  }
  const double s_ms = service_ms(b);
  // Heavy-traffic stochastic queueing the deterministic fluid limit misses
  // (Allen-Cunneen M/G/c shape over the executor lanes); clamped so the
  // correction hands over to the explicit backlog term at saturation.
  double w_stoch_ms = 0.0;
  const double rho = lam_f / mu_max_;
  if (rho > 0.0) {
    const double rc = std::min(rho, 0.95);
    w_stoch_ms = 0.5 * s_ms * std::pow(rc, stoch_exponent_) /
                 (static_cast<double>(lanes_) * (1.0 - rc));
  }
  const double shift_ms = s_ms + w_queue_ms + w_stoch_ms;

  // 6. Distribute the tick's completed mass over the latency probes.
  double good = 0.0, miss = 0.0;
  if (served > 0.0) {
    sorted_scratch_.clear();
    for (const Probe& p : probes_) {
      const double lat = p.base_ms + p.wait_frac * t_form_ms + shift_ms;
      const double mass = served * p.weight;
      record_mass(lat, mass);
      if (lat > kDeadlineMs) {
        miss += mass;
      } else {
        good += mass;
      }
      sorted_scratch_.emplace_back(lat, p.weight);
    }
    served_mass_ += served;
    miss_mass_ += miss;
    std::sort(sorted_scratch_.begin(), sorted_scratch_.end());

    const double p99_tick = quantiles_sorted(sorted_scratch_, std::array{0.99})[0];
    if (p99_tick <= kDeadlineMs) {
      knee_sessions_ = std::max(knee_sessions_, sessions());
    } else if (first_breach_ < 0) {
      first_breach_ = t_end;
    }

    // Keep the admission window tracking the live distribution.
    if (cfg_.admission.enabled && served >= 1.0) {
      for (double v : quantiles_sorted(sorted_scratch_, kStencil)) {
        admission_.observe_latency_ms(v);
      }
    }
  }

  // 7. SLO batch feed with integer-emission carries (exact totals over time).
  if (cfg_.slo) {
    good_carry_ += good;
    miss_carry_ += miss;
    const auto g = static_cast<std::int64_t>(good_carry_);
    const auto m = static_cast<std::int64_t>(miss_carry_);
    if (g > 0 || m > 0) {
      cfg_.slo->observe_batch(t_end, g, m);
      good_carry_ -= static_cast<double>(g);
      miss_carry_ -= static_cast<double>(m);
    }
  }

  // 8. Occupancy bookkeeping.
  peak_sessions_ = std::max(peak_sessions_, sessions());
  const auto slot = static_cast<std::size_t>(
      std::min<std::int64_t>(static_cast<std::int64_t>(occupancy_.size()) - 1,
                             ticks_ * static_cast<std::int64_t>(occupancy_.size()) /
                                 total_ticks_));
  occupancy_[slot] += sessions();
  ++ticks_;
}

FluidResult FluidCell::run() {
  while (ticks_ < total_ticks_) step();
  return finish();
}

FluidResult FluidCell::finish() {
  FluidResult r;
  static_cast<sim::LatencySummary&>(r) = {
      served_mass_ > 0.0 ? lat_sum_ / served_mass_ : 0.0, lat_any_ ? lat_min_ : 0.0,
      lat_any_ ? lat_max_ : 0.0, lat_quantile(0.50), lat_quantile(0.90), lat_quantile(0.99)};
  r.name = cfg_.entity;
  r.arrivals = static_cast<std::uint64_t>(std::llround(arrivals_mass_));
  r.admitted = static_cast<std::uint64_t>(std::llround(admitted_mass_));
  r.downgraded = static_cast<std::uint64_t>(std::llround(downgraded_mass_));
  r.rejected = static_cast<std::uint64_t>(std::llround(rejected_mass_));
  r.frames = std::llround(served_mass_);
  r.misses = std::llround(miss_mass_);
  r.miss_rate = served_mass_ > 0.0 ? miss_mass_ / served_mass_ : 0.0;
  r.sim_seconds = sim::to_seconds(static_cast<sim::Time>(ticks_) * cfg_.tick);
  r.served_fps = r.sim_seconds > 0.0 ? served_mass_ / r.sim_seconds : 0.0;
  r.peak_sessions = peak_sessions_;
  r.knee_sessions = knee_sessions_;
  r.first_breach = first_breach_;
  r.backlog_end = backlog_;
  r.ticks = ticks_;
  r.occupancy.resize(occupancy_.size());
  for (std::size_t i = 0; i < occupancy_.size(); ++i) {
    // Ticks land in slot i when i = tick * slots / total: count them exactly
    // so partially filled tails stay a proper time mean.
    const std::int64_t lo = (static_cast<std::int64_t>(i) * total_ticks_ +
                             static_cast<std::int64_t>(occupancy_.size()) - 1) /
                            static_cast<std::int64_t>(occupancy_.size());
    const std::int64_t hi = (static_cast<std::int64_t>(i + 1) * total_ticks_ +
                             static_cast<std::int64_t>(occupancy_.size()) - 1) /
                            static_cast<std::int64_t>(occupancy_.size());
    const std::int64_t in_slot = std::max<std::int64_t>(1, hi - lo);
    r.occupancy[i] = occupancy_[i] / static_cast<double>(in_slot);
  }

  if (cfg_.metrics) {
    obs::MetricsRegistry& m = *cfg_.metrics;
    m.counter("fluid.arrivals", cfg_.entity).add(static_cast<std::int64_t>(r.arrivals));
    m.counter("fluid.admitted", cfg_.entity).add(static_cast<std::int64_t>(r.admitted));
    m.counter("fluid.downgraded", cfg_.entity)
        .add(static_cast<std::int64_t>(r.downgraded));
    m.counter("fluid.rejected", cfg_.entity).add(static_cast<std::int64_t>(r.rejected));
    m.counter("fluid.served", cfg_.entity).add(r.frames);
    m.counter("fluid.deadline_miss", cfg_.entity).add(r.misses);
    m.gauge("fluid.peak_sessions", cfg_.entity).set(r.peak_sessions);
    m.gauge("fluid.knee_sessions", cfg_.entity).set(r.knee_sessions);
    m.gauge("fluid.backlog_end", cfg_.entity).set(r.backlog_end);
    // Fold the fine-grained mass histogram into the mergeable log-bucketed
    // instrument (restore() merges injected bucket counts).
    std::vector<std::int64_t> acc(obs::Histogram::kBucketCount, 0);
    std::vector<double> accf(obs::Histogram::kBucketCount, 0.0);
    for (std::size_t i = 0; i < lat_mass_.size(); ++i) {
      if (lat_mass_[i] <= 0.0) continue;
      const int bucket = obs::Histogram::bucket_of(lat_bin_mid(static_cast<int>(i)));
      accf[static_cast<std::size_t>(bucket)] += lat_mass_[i];
    }
    std::vector<std::pair<int, std::int64_t>> buckets;
    for (int i = 0; i < obs::Histogram::kBucketCount; ++i) {
      acc[static_cast<std::size_t>(i)] = std::llround(accf[static_cast<std::size_t>(i)]);
      if (acc[static_cast<std::size_t>(i)] > 0) {
        buckets.emplace_back(i, acc[static_cast<std::size_t>(i)]);
      }
    }
    if (!buckets.empty()) {
      m.histogram("fluid.m2p_ms", cfg_.entity).restore(buckets, lat_sum_, r.min_ms,
                                                       r.max_ms);
    }
  }
  return r;
}

}  // namespace arnet::fluid
