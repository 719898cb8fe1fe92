#include "arnet/fleet/population.hpp"

#include <algorithm>

#include "arnet/check/assert.hpp"
#include "arnet/runner/experiment.hpp"

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

/// Weighted pick by cumulative weight; u in [0, 1).
template <typename T, typename WeightOf>
std::size_t pick_weighted(const std::vector<T>& entries, double u, WeightOf weight_of) {
  double total = 0.0;
  for (const T& e : entries) total += weight_of(e);
  double mark = u * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    acc += weight_of(entries[i]);
    if (mark < acc) return i;
  }
  return entries.empty() ? 0 : entries.size() - 1;
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
      arrivals_(runner::derive_seed(seed, 0)) {
  ARNET_CHECK(!cfg_.device_mix.empty(), "population needs a device mix");
  ARNET_CHECK(!cfg_.app_mix.empty(), "population needs an app mix");
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
  sim::Rng attrs(runner::derive_seed(seed_, id + 1));
  SessionSpec s;
  s.id = id;
  s.arrival = now;
  s.lifetime = sim::from_seconds(attrs.exponential(cfg_.mean_lifetime_s));
  s.device = cfg_.device_mix[pick_weighted(cfg_.device_mix, attrs.uniform(),
                                           [](const DeviceMixEntry& e) { return e.weight; })]
                 .cls;
  s.app = static_cast<int>(pick_weighted(
      cfg_.app_mix, attrs.uniform(), [](const AppMixEntry& e) { return e.weight; }));
  s.pos = {attrs.uniform(0.0, cfg_.area_km), attrs.uniform(0.0, cfg_.area_km)};
  return s;
}

void PopulationModel::start() {
  running_ = true;
  schedule_next();
}

void PopulationModel::schedule_next() {
  if (!running_) return;
  if (cfg_.max_sessions != 0 && next_id_ >= cfg_.max_sessions) return;
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
