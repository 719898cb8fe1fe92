#pragma once

#include <map>
#include <string>
#include <type_traits>

#include "arnet/obs/metrics.hpp"
#include "arnet/obs/recorder.hpp"

namespace arnet::obs {

/// Per-entity metrics hub: counters, gauges, log-bucketed histograms, and a
/// time-series recorder, all keyed by (metric name, entity). Subsystems are
/// handed a registry pointer and publish into it; exporters (JSONL/CSV) and
/// figure harnesses consume it. Instruments are created on first touch, so
/// publishing code never needs registration ceremony.
///
/// Ordered maps keep iteration (export, merge) deterministic — a hard
/// requirement for this repo's trace-fingerprint harness.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& entity) {
    return counters_[MetricId{name, entity}];
  }
  Gauge& gauge(const std::string& name, const std::string& entity) {
    return gauges_[MetricId{name, entity}];
  }
  Histogram& histogram(const std::string& name, const std::string& entity) {
    return histograms_[MetricId{name, entity}];
  }
  TimeSeriesRecorder& recorder() { return recorder_; }
  const TimeSeriesRecorder& recorder() const { return recorder_; }

  const std::map<MetricId, Counter>& counters() const { return counters_; }
  const std::map<MetricId, Gauge>& gauges() const { return gauges_; }
  const std::map<MetricId, Histogram>& histograms() const { return histograms_; }

  /// Lookup without creation; nullptr when the instrument does not exist.
  const Counter* find_counter(const std::string& name, const std::string& entity) const {
    auto it = counters_.find(MetricId{name, entity});
    return it == counters_.end() ? nullptr : &it->second;
  }
  const Gauge* find_gauge(const std::string& name, const std::string& entity) const {
    auto it = gauges_.find(MetricId{name, entity});
    return it == gauges_.end() ? nullptr : &it->second;
  }
  const Histogram* find_histogram(const std::string& name, const std::string& entity) const {
    auto it = histograms_.find(MetricId{name, entity});
    return it == histograms_.end() ? nullptr : &it->second;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && recorder_.empty();
  }

  /// Aggregate another registry into this one: counters add, histograms
  /// merge bucket-wise, gauges latest-wins, series append. Used to combine
  /// per-shard or per-run registries into one report.
  void merge_from(const MetricsRegistry& o) {
    for (const auto& [id, c] : o.counters_) counters_[id].merge(c);
    for (const auto& [id, g] : o.gauges_) gauges_[id].merge(g);
    for (const auto& [id, h] : o.histograms_) histograms_[id].merge(h);
    recorder_.merge_from(o.recorder_);
  }

 private:
  std::map<MetricId, Counter> counters_;
  std::map<MetricId, Gauge> gauges_;
  std::map<MetricId, Histogram> histograms_;
  TimeSeriesRecorder recorder_;
};

/// A registry instrument held from its first touch, for publishing sites on
/// a hot path. The first get() resolves its key exactly as
/// counter()/gauge()/histogram() would (a sim::TimeSeries handle as
/// recorder().series() would), creating the instrument if absent;
/// later calls return the held instrument without building a key or
/// searching a map. Map nodes are stable, so the handle stays valid for the
/// registry's lifetime. Resolving on first touch rather than up front keeps
/// instruments that never record out of the export, so a handle changes no
/// output. A handle belongs to one registry: re-point it with reset().
template <class T>
class Handle {
  static_assert(std::is_same_v<T, Counter> || std::is_same_v<T, Gauge> ||
                std::is_same_v<T, Histogram> || std::is_same_v<T, sim::TimeSeries>);

 public:
  T& get(MetricsRegistry& r, const char* name, const std::string& entity) {
    return get(r, [&] { return MetricId{name, entity}; });
  }
  /// For keys built at run time: `key()` returns the MetricId and runs on
  /// the first touch only.
  template <class Key>
  T& get(MetricsRegistry& r, Key&& key) {
    if (!p_) {
      const MetricId id = key();
      if constexpr (std::is_same_v<T, Counter>) {
        p_ = &r.counter(id.name, id.entity);
      } else if constexpr (std::is_same_v<T, Gauge>) {
        p_ = &r.gauge(id.name, id.entity);
      } else if constexpr (std::is_same_v<T, Histogram>) {
        p_ = &r.histogram(id.name, id.entity);
      } else {
        p_ = &r.recorder().series(id.name, id.entity);
      }
    }
    return *p_;
  }
  void reset() { p_ = nullptr; }

 private:
  T* p_ = nullptr;
};

}  // namespace arnet::obs
