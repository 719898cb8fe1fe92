#include "arnet/runner/sweep.hpp"

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "arnet/obs/export.hpp"

namespace arnet::runner {

namespace {

void json_num(std::ostream& os, double v) {
  std::ostringstream tmp;
  tmp << std::setprecision(12) << v;
  os << tmp.str();
}

}  // namespace

void write_bench_json(std::ostream& os, const std::string& suite,
                      const std::vector<BenchRow>& rows) {
  os << "{\"schema\": \"arnet-bench-v1\", \"suite\": \"" << obs::json_escape(suite)
     << "\", \"benchmarks\": [";
  bool first = true;
  for (const BenchRow& r : rows) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << obs::json_escape(r.name) << "\", \"iterations\": "
       << r.iterations << ", \"wall_time_s\": ";
    json_num(os, r.wall_time_s);
    os << ", \"ops_per_sec\": ";
    json_num(os, r.ops_per_sec);
    os << ", \"sim_events\": " << r.sim_events << ", \"sim_events_per_sec\": ";
    json_num(os, static_cast<double>(r.sim_events) / r.wall_time_s);
    for (const auto& [key, value] : r.extra) {
      os << ", \"" << obs::json_escape(key) << "\": ";
      json_num(os, value);
    }
    const BenchRow::Latency& l = r.latency_ns;
    os << ", \"latency_ns\": {\"mean\": ";
    json_num(os, l.mean);
    os << ", \"p50\": ";
    json_num(os, l.p50);
    os << ", \"p90\": ";
    json_num(os, l.p90);
    os << ", \"p99\": ";
    json_num(os, l.p99);
    os << ", \"min\": ";
    json_num(os, l.min);
    os << ", \"max\": ";
    json_num(os, l.max);
    os << "}}";
  }
  os << "\n]}\n";
}

trace::Telemetry SweepTelemetry::attach(std::size_t cell, std::uint64_t run_seed,
                                        const slo::SloConfig& slo) {
  Cell& c = cells_[cell];
  c.tracer = std::make_unique<trace::Tracer>();
  c.tracer->set_sink_only(true);
  trace::SamplerConfig sc;
  sc.seed = derive_seed(run_seed, 0x5A3917);
  c.sampler = std::make_unique<trace::TailSampler>(sc);
  c.slo = std::make_unique<slo::SloTracker>(slo);
  return {.tracer = c.tracer.get(), .sampler = c.sampler.get(), .slo = c.slo.get()};
}

trace::Telemetry SweepTelemetry::attach_slo(std::size_t cell, const slo::SloConfig& slo) {
  cells_[cell].slo = std::make_unique<slo::SloTracker>(slo);
  return {.slo = cells_[cell].slo.get()};
}

void SweepTelemetry::write_slo(std::ostream& os) const {
  std::vector<const slo::SloTracker*> trackers;
  for (const Cell& c : cells_) {
    if (c.slo) trackers.push_back(c.slo.get());
  }
  slo::write_slo_jsonl(trackers, os);
}

void SweepTelemetry::write_samples(std::ostream& os) const {
  trace::write_samples_header(os);
  std::size_t runs = 0;
  for (const Cell& c : cells_) {
    if (!c.sampler) continue;
    trace::append_samples_run(*c.sampler, *c.tracer, c.slo->config().entity, os);
    ++runs;
  }
  trace::write_samples_end(os, runs);
}

int write_sweep(const SweepArtifacts& a) {
  // Writes one artifact, or names it on stderr and returns false. The first
  // announcement of a sweep follows a blank line.
  bool announced = false;
  auto write = [&](const std::string& file, auto emit) {
    const std::string path = out_path(a.out_dir, file);
    std::ofstream os(path);
    if (os) emit(os);
    if (!os) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    std::cout << (announced ? "wrote " : "\nwrote ") << path << "\n";
    announced = true;
    return true;
  };

  if (a.metrics && !write(a.suite + "_metrics.jsonl",
                          [&](std::ostream& os) { obs::write_jsonl(*a.metrics, os); })) {
    return 1;
  }
  if (!write("BENCH_" + a.suite + ".json",
             [&](std::ostream& os) { write_bench_json(os, a.suite, a.rows); })) {
    return 1;
  }
  if (a.telemetry &&
      !(write(a.suite + "_slo.jsonl", [&](std::ostream& os) { a.telemetry->write_slo(os); }) &&
        write(a.suite + "_samples.jsonl",
              [&](std::ostream& os) { a.telemetry->write_samples(os); }))) {
    return 1;
  }
  return 0;
}

}  // namespace arnet::runner
