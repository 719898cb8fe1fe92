#include "arnet/slo/slo.hpp"

#include <algorithm>
#include <ostream>

#include "arnet/check/assert.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/obs/registry.hpp"

namespace arnet::slo {

namespace {

/// An alert clears below threshold * kClearFactor (see SloConfig).
constexpr double kClearFactor = 0.5;
/// Bound on the burn timeline.
constexpr std::size_t kMaxBurnSamples = 4096;

}  // namespace

const char* to_string(AlertState s) {
  switch (s) {
    case AlertState::kOk: return "ok";
    case AlertState::kSlowBurn: return "slow-burn";
    case AlertState::kFastBurn: return "fast-burn";
  }
  return "?";
}

SloTracker::SloTracker(SloConfig cfg) : cfg_(std::move(cfg)) {
  ARNET_CHECK(cfg_.objective > 0.0 && cfg_.objective < 1.0,
              "slo objective must be in (0, 1)");
  ARNET_CHECK(cfg_.fast_window > 0 && cfg_.slow_window >= cfg_.fast_window,
              "slo windows: need 0 < fast <= slow");
  const int per_fast = std::max(1, cfg_.slots_per_fast_window);
  slot_width_ = std::max<sim::Time>(1, cfg_.fast_window / per_fast);
  fast_slots_ = static_cast<std::size_t>(
      std::max<sim::Time>(1, (cfg_.fast_window + slot_width_ - 1) / slot_width_));
  const auto slow_slots = static_cast<std::size_t>(
      std::max<sim::Time>(1, (cfg_.slow_window + slot_width_ - 1) / slot_width_));
  wheel_.assign(std::max(fast_slots_, slow_slots), Slot{});
}

void SloTracker::observe(sim::Time now, double latency_ms) {
  record(now, latency_ms > cfg_.deadline_ms);
}

void SloTracker::observe_miss(sim::Time now) { record(now, true); }

void SloTracker::observe_batch(sim::Time now, std::int64_t good, std::int64_t miss) {
  ARNET_CHECK(good >= 0 && miss >= 0, "slo batch counts must be non-negative");
  if (good == 0 && miss == 0) return;
  advance(now);
  Slot& s = wheel_[static_cast<std::size_t>(cur_slot_) % wheel_.size()];
  s.good += good;
  s.miss += miss;
  fast_.good += good;
  fast_.miss += miss;
  slow_.good += good;
  slow_.miss += miss;
  total_good_ += good;
  total_miss_ += miss;
  evaluate(now);
}

void SloTracker::record(sim::Time now, bool missed) {
  advance(now);
  Slot& s = wheel_[static_cast<std::size_t>(cur_slot_) % wheel_.size()];
  if (missed) {
    ++s.miss;
    ++fast_.miss;
    ++slow_.miss;
    ++total_miss_;
  } else {
    ++s.good;
    ++fast_.good;
    ++slow_.good;
    ++total_good_;
  }
  evaluate(now);
}

void SloTracker::advance(sim::Time now) {
  const std::int64_t target = now / slot_width_;
  if (cur_slot_ < 0) {
    cur_slot_ = target;
    return;
  }
  if (target <= cur_slot_) return;
  // Crossing into a new slot: snapshot the burn timeline once per slot
  // boundary, then expire everything the gap skipped. A gap longer than the
  // whole wheel clears it wholesale (idle cells forget their history).
  sample_burn(cur_slot_ * slot_width_);
  const std::int64_t steps = target - cur_slot_;
  const auto w = static_cast<std::int64_t>(wheel_.size());
  if (steps >= w) {
    for (Slot& s : wheel_) s = Slot{};
    fast_ = Slot{};
    slow_ = Slot{};
  } else {
    for (std::int64_t i = 1; i <= steps; ++i) {
      const std::int64_t t = cur_slot_ + i;
      // The slot sliding out of the fast window. When the gap outruns the
      // window, the slot was already zeroed earlier in this loop, so the
      // subtraction is a no-op.
      const std::int64_t out_idx = t - static_cast<std::int64_t>(fast_slots_);
      const Slot& out = wheel_[static_cast<std::size_t>((out_idx % w + w) % w)];
      fast_.good -= out.good;
      fast_.miss -= out.miss;
      // The slot the window advances into still holds counts from one full
      // wheel revolution ago: they leave the slow window now.
      Slot& in = wheel_[static_cast<std::size_t>(t % w)];
      slow_.good -= in.good;
      slow_.miss -= in.miss;
      in = Slot{};
    }
  }
  cur_slot_ = target;
}

double SloTracker::burn_from(const Slot& window) const {
  const std::int64_t n = window.good + window.miss;
  if (n < std::max<std::int64_t>(1, cfg_.min_samples)) return 0.0;
  const double miss_rate = static_cast<double>(window.miss) / static_cast<double>(n);
  return miss_rate / (1.0 - cfg_.objective);
}

double SloTracker::burn_fast() const { return burn_from(fast_); }
double SloTracker::burn_slow() const { return burn_from(slow_); }

void SloTracker::sample_burn(sim::Time slot_start) {
  if (burn_samples_.size() >= kMaxBurnSamples) return;
  BurnSample b;
  b.time = slot_start;
  b.fast = burn_fast();
  b.slow = burn_slow();
  b.state = state_;
  burn_samples_.push_back(b);
}

void SloTracker::evaluate(sim::Time now) {
  const double fast = burn_fast();
  const double slow = burn_slow();
  AlertState next = state_;
  switch (state_) {
    case AlertState::kOk:
      if (fast >= cfg_.fast_burn_threshold) {
        next = AlertState::kFastBurn;
      } else if (slow >= cfg_.slow_burn_threshold) {
        next = AlertState::kSlowBurn;
      }
      break;
    case AlertState::kFastBurn:
      if (fast < cfg_.fast_burn_threshold * kClearFactor) {
        next = slow >= cfg_.slow_burn_threshold ? AlertState::kSlowBurn : AlertState::kOk;
      }
      break;
    case AlertState::kSlowBurn:
      if (fast >= cfg_.fast_burn_threshold) {
        next = AlertState::kFastBurn;
      } else if (slow < cfg_.slow_burn_threshold * kClearFactor) {
        next = AlertState::kOk;
      }
      break;
  }
  if (next == state_) return;
  state_ = next;
  AlertEvent e;
  e.time = now;
  e.state = next;
  e.burn_fast = fast;
  e.burn_slow = slow;
  if (alerts_.size() < cfg_.max_alerts) {
    alerts_.push_back(e);
  } else {
    ++alerts_dropped_;
  }
  if (next != AlertState::kOk) {
    ++alert_episodes_;
    if (on_alert_) on_alert_(e);
  }
}

void SloTracker::publish(obs::MetricsRegistry& reg) const {
  reg.gauge("slo.burn_fast", cfg_.entity).set(burn_fast());
  reg.gauge("slo.burn_slow", cfg_.entity).set(burn_slow());
  reg.gauge("slo.state", cfg_.entity).set(static_cast<double>(state_));
  reg.gauge("slo.alert_episodes", cfg_.entity)
      .set(static_cast<double>(alert_episodes_));
  reg.gauge("slo.miss_total", cfg_.entity).set(static_cast<double>(total_miss_));
  reg.gauge("slo.good_total", cfg_.entity).set(static_cast<double>(total_good_));
}

void write_slo_jsonl(const std::vector<const SloTracker*>& trackers, std::ostream& os) {
  os << "{\"kind\":\"meta\",\"schema\":\"arnet-slo-v1\",\"objectives\":"
     << trackers.size() << "}\n";
  std::uint64_t alerts_total = 0;
  for (const SloTracker* t : trackers) {
    if (!t) continue;
    const SloConfig& c = t->config();
    os << "{\"kind\":\"objective\",\"entity\":\"" << obs::json_escape(c.entity)
       << "\",\"deadline_ms\":" << obs::fmt_double(c.deadline_ms)
       << ",\"objective\":" << obs::fmt_double(c.objective) << ",\"good\":" << t->good()
       << ",\"miss\":" << t->miss() << ",\"burn_fast\":" << obs::fmt_double(t->burn_fast())
       << ",\"burn_slow\":" << obs::fmt_double(t->burn_slow()) << ",\"state\":\""
       << to_string(t->state()) << "\",\"alerts\":" << t->alerts().size()
       << ",\"alerts_dropped\":" << t->alerts_dropped()
       << ",\"episodes\":" << t->alert_episodes() << "}\n";
    for (const AlertEvent& a : t->alerts()) {
      os << "{\"kind\":\"alert\",\"entity\":\"" << obs::json_escape(c.entity)
         << "\",\"t_ns\":" << a.time << ",\"state\":\"" << to_string(a.state)
         << "\",\"burn_fast\":" << obs::fmt_double(a.burn_fast)
         << ",\"burn_slow\":" << obs::fmt_double(a.burn_slow) << "}\n";
      ++alerts_total;
    }
    for (const BurnSample& b : t->burn_samples()) {
      os << "{\"kind\":\"burn\",\"entity\":\"" << obs::json_escape(c.entity)
         << "\",\"t_ns\":" << b.time << ",\"fast\":" << obs::fmt_double(b.fast)
         << ",\"slow\":" << obs::fmt_double(b.slow) << ",\"state\":\""
         << to_string(b.state) << "\"}\n";
    }
  }
  os << "{\"kind\":\"end\",\"objectives\":" << trackers.size()
     << ",\"alerts\":" << alerts_total << "}\n";
}

}  // namespace arnet::slo
