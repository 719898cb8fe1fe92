#include "arnet/fleet/population.hpp"

#include <algorithm>
#include <cmath>

#include "arnet/check/assert.hpp"

namespace arnet::fleet {

const char* to_string(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kMmpp:
      return "mmpp";
  }
  return "?";
}

namespace {

/// kDeviceMix's class at cumulative weight u * total; u in [0, 1).
mar::DeviceClass pick_device(double u) {
  double total = 0.0;
  for (const DeviceMixEntry& e : kDeviceMix) total += e.weight;
  const double mark = u * total;
  double acc = 0.0;
  for (const DeviceMixEntry& e : kDeviceMix) {
    acc += e.weight;
    if (mark < acc) return e.cls;
  }
  return kDeviceMix.back().cls;
}

}  // namespace

double DiurnalProfile::multiplier(sim::Time t) const {
  if (!active()) return 1.0;
  sim::Time ph = (t + phase) % period;
  if (ph < 0) ph += period;
  auto slot = static_cast<std::size_t>(static_cast<double>(ph) /
                                       static_cast<double>(period) *
                                       static_cast<double>(curve.size()));
  return curve[std::min(slot, curve.size() - 1)];
}

double DiurnalProfile::peak() const {
  double p = 1.0;
  for (double m : curve) p = std::max(p, m);
  return p;
}

PopulationModel::PopulationModel(sim::Simulator& sim, PopulationConfig cfg,
                                 std::uint64_t seed)
    : sim_(sim),
      cfg_(std::move(cfg)),
      seed_(seed),
      arrivals_(arrival_stream(seed)) {
  ARNET_CHECK(std::isfinite(cfg_.base_arrivals_per_s) && cfg_.base_arrivals_per_s >= 0.0,
              "population arrival rate must be finite and non-negative, got ",
              cfg_.base_arrivals_per_s);
  const double peak_diurnal = cfg_.profile.active() ? cfg_.profile.peak() : 1.0;
  peak_rate_ = cfg_.base_arrivals_per_s * peak_diurnal *
               (cfg_.process == ArrivalProcess::kMmpp
                    ? std::max(1.0, cfg_.burst_multiplier)
                    : 1.0);
}

double PopulationModel::rate_at(sim::Time t) const { return arrival_rate(cfg_, t, phase_); }

SessionSpec PopulationModel::make_session(std::uint64_t id, sim::Time now) const {
  // Every attribute from the session's own stream: arrival interleaving
  // (which depends on load) never shifts what session k looks like.
  sim::Rng attrs(sim::derive_seed(seed_, id + 1));
  SessionSpec s;
  s.id = id;
  s.arrival = now;
  s.lifetime = sim::from_seconds(attrs.exponential(cfg_.mean_lifetime_s));
  s.device = pick_device(attrs.uniform());
  // A reserved draw: skipping it would move the position below on the
  // stream and change every recorded population.
  (void)attrs.uniform();
  s.pos = {attrs.uniform(0.0, cfg_.area_km), attrs.uniform(0.0, cfg_.area_km)};
  return s;
}

void PopulationModel::start() {
  running_ = true;
  schedule_next();
}

void PopulationModel::schedule_next() {
  // A zero rate has no next arrival: exponential(1 / 0) is infinite.
  if (!running_ || peak_rate_ == 0.0) return;
  // Thinning (Lewis-Shedler): candidates at the peak rate, accepted with
  // probability actual/peak. The MMPP state machine advances lazily on the
  // same stream, so one seed fixes the entire point process.
  double dt_s = arrivals_.exponential(1.0 / peak_rate_);
  sim_.after(sim::from_seconds(dt_s), [this] {
    if (!running_) return;
    const sim::Time now = sim_.now();
    phase_.advance(now, arrivals_, cfg_);
    if (arrivals_.uniform() * peak_rate_ < rate_at(now)) {
      SessionSpec s = make_session(next_id_++, now);
      if (cb_) cb_(s);
    }
    schedule_next();
  });
}

}  // namespace arnet::fleet
