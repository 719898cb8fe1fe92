#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "arnet/sim/time.hpp"

namespace arnet::sim {

/// Sample store with exact quantiles; fine at simulation scales.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return xs_.size(); }

  double mean() const {
    if (xs_.empty()) return 0.0;
    double s = 0.0;
    for (double x : xs_) s += x;
    return s / static_cast<double>(xs_.size());
  }

  /// Quantile by linear interpolation; `p` in [0, 1].
  double percentile(double p) const {
    if (xs_.empty()) return 0.0;
    sort_if_needed();
    double idx = p * static_cast<double>(xs_.size() - 1);
    auto lo = static_cast<std::size_t>(idx);
    auto hi = std::min(lo + 1, xs_.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
  }

  double median() const { return percentile(0.5); }
  double min() const { return percentile(0.0); }
  double max() const { return percentile(1.0); }

  const std::vector<double>& values() const {
    sort_if_needed();
    return xs_;
  }

 private:
  void sort_if_needed() const {
    if (!sorted_) {
      std::sort(xs_.begin(), xs_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> xs_;
  mutable bool sorted_ = true;
};

/// One latency distribution in ms: the summary every cell result carries.
struct LatencySummary {
  double mean_ms = 0.0, min_ms = 0.0, max_ms = 0.0, p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0;
};

/// The one way to count frames against a deadline. `frames` counts every frame
/// the owner knows of: a sender bumps it at capture, a receiver (which never
/// sees a frame that lost every fragment) when a frame completes or expires.
/// complete() records each finished frame; frames - results never completed.
struct FrameLedger {
  std::int64_t frames = 0;
  std::int64_t results = 0;
  std::int64_t deadline_misses = 0;
  Samples latency_ms;  ///< one sample per result

  /// Record one completed frame; returns whether it missed `deadline`.
  bool complete(Time latency, Time deadline) {
    ++results;
    latency_ms.add(to_milliseconds(latency));
    const bool missed = latency > deadline;
    if (missed) ++deadline_misses;
    return missed;
  }

  double miss_rate() const {
    return results ? static_cast<double>(deadline_misses) / static_cast<double>(results) : 0.0;
  }

  LatencySummary summary() const {
    return {latency_ms.mean(),   latency_ms.min(),            latency_ms.max(),
            latency_ms.median(), latency_ms.percentile(0.90), latency_ms.percentile(0.99)};
  }

  /// Conservation: misses <= results <= frames, one sample per result.
  bool consistent() const {
    return 0 <= deadline_misses && deadline_misses <= results && results <= frames &&
           static_cast<std::int64_t>(latency_ms.count()) == results;
  }
};

/// Timestamped series, e.g. a cwnd or throughput trace for a figure.
class TimeSeries {
 public:
  void add(Time t, double v) { points_.emplace_back(t, v); }

  const std::vector<std::pair<Time, double>>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Mean of values with timestamp in [t0, t1).
  double mean_in(Time t0, Time t1) const {
    double s = 0.0;
    std::int64_t n = 0;
    for (const auto& [t, v] : points_) {
      if (t >= t0 && t < t1) {
        s += v;
        ++n;
      }
    }
    return n ? s / static_cast<double>(n) : 0.0;
  }

 private:
  std::vector<std::pair<Time, double>> points_;
};

/// Byte counter that converts interval deltas into Mb/s series.
class RateMeter {
 public:
  void on_bytes(std::int64_t bytes) { total_ += bytes; }

  /// Record throughput since the previous sample as one series point.
  void sample(Time now) {
    double mbps = 0.0;
    if (now > last_t_) {
      mbps = static_cast<double>(total_ - last_total_) * 8.0 /
             to_seconds(now - last_t_) / 1e6;
    }
    series_.add(now, mbps);
    last_total_ = total_;
    last_t_ = now;
  }

  std::int64_t total_bytes() const { return total_; }
  const TimeSeries& series() const { return series_; }

  /// Average rate in Mb/s over [0, now].
  double average_mbps(Time now) const {
    if (now <= 0) return 0.0;
    return static_cast<double>(total_) * 8.0 / to_seconds(now) / 1e6;
  }

 private:
  std::int64_t total_ = 0;
  std::int64_t last_total_ = 0;
  Time last_t_ = 0;
  TimeSeries series_;
};

}  // namespace arnet::sim
