// arbench: end-to-end and per-layer benchmark of the arnet simulator.
//
//   arbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--goldens FILE] [--write-goldens FILE] [--spans-dir DIR]
//
// A workload is a fixed sweep of ops (a "round") made from the seed. This
// program sets the workload up, then repeats rounds in a closed loop until
// --seconds have passed: a serial round and a round fanned out through
// runner::ExperimentRunner at kJobs workers in turn, with a fresh set-up
// before each turn after the first (median = setup_s). With --trace 1 each
// turn adds a traced serial round, and the run reports per-layer numbers.
// Every op's output is checked (conservation, digest against the committed
// golden on the golden seed, and against the first round on any seed); a
// failed op makes the run incorrect. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arnet/runner/experiment.hpp"
#include "harness.hpp"

namespace arbench {
namespace {

using arnet::runner::derive_seed;

constexpr int kJobs = 2;  ///< runner workers of the fanned rounds
constexpr std::uint64_t kGoldenSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string goldens;
  std::string write_goldens;
  std::string spans_dir;
};

struct Round {
  std::vector<OpRecord> ops;
  double wall_ms = 0.0;    ///< whole round, post-sweep op included
  double fanout_ms = 0.0;  ///< the ops alone
  std::size_t fanned = 0;  ///< ops before the post-sweep op
  int jobs = 1;
  bool traced = false;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t root) {
  if (name == "packet_sessions") return make_packet_sessions(root);
  if (name == "fleet_serving") return make_fleet_serving(root);
  if (name == "city_day") return make_city_day(root);
  if (name == "vision_recognition") return make_vision_recognition(root);
  return nullptr;
}

Round run_round(Workload& w, std::uint64_t root, int jobs, SpanLog* spans, int index) {
  Round r;
  r.jobs = jobs;
  r.traced = spans != nullptr;
  const std::size_t n = w.ops();
  r.ops.resize(n);
  r.fanned = n;
  const Clock::time_point t0 = Clock::now();
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (spans) spans->set_op(static_cast<std::int64_t>(i), index);
      Span op(spans, "op", "bench");
      const Clock::time_point a = Clock::now();
      OpRecord rec = w.run_op(i, derive_seed(root, i), spans);
      const Clock::time_point b = Clock::now();
      rec.ms = ms_between(a, b);
      rec.end_ms = ms_between(t0, b);
      r.ops[i] = std::move(rec);
    }
  } else {
    arnet::runner::ExperimentRunner::Config cfg;
    cfg.jobs = jobs;
    cfg.root_seed = root;
    arnet::runner::ExperimentRunner pool(cfg);
    std::vector<std::thread::id> ids(n);
    pool.for_each(n, [&](arnet::runner::RunContext& ctx) {
      const Clock::time_point a = Clock::now();
      OpRecord rec = w.run_op(ctx.run_index, ctx.seed, nullptr);
      const Clock::time_point b = Clock::now();
      rec.ms = ms_between(a, b);
      rec.end_ms = ms_between(t0, b);
      ids[ctx.run_index] = std::this_thread::get_id();
      r.ops[ctx.run_index] = std::move(rec);
    });
    std::vector<std::thread::id> seen;
    for (std::size_t i = 0; i < n; ++i) {
      auto it = std::find(seen.begin(), seen.end(), ids[i]);
      r.ops[i].worker = static_cast<std::size_t>(it - seen.begin());
      if (it == seen.end()) seen.push_back(ids[i]);
    }
  }
  r.fanout_ms = ms_between(t0, Clock::now());
  if (spans) spans->set_op(static_cast<std::int64_t>(n), index);
  std::optional<OpRecord> fin;
  const Clock::time_point a = Clock::now();
  {
    Span op(spans, "op", "bench");
    fin = w.finish_round(spans);
  }
  const Clock::time_point b = Clock::now();
  if (fin) {
    fin->ms = ms_between(a, b);
    fin->end_ms = ms_between(t0, b);
    r.ops.push_back(std::move(*fin));
  }
  r.wall_ms = ms_between(t0, b);
  return r;
}

/// "" when the op passed; otherwise why it failed.
std::string verdict(const OpRecord& rec, std::uint64_t expected) {
  if (!rec.violation.empty()) return rec.violation;
  if (rec.digest != expected) return "result digest differs from the reference";
  return "";
}

Counts round_counts(const Round& r) {
  Counts c;
  for (const OpRecord& op : r.ops) {
    for (const auto& [k, v] : op.counts) c[k] += v;
  }
  return c;
}

std::uint64_t round_digest(const Round& r) {
  Digest d;
  for (const OpRecord& op : r.ops) d.u(op.digest);
  return d.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Golden digests of `workload` on kGoldenSeed; empty when none committed.
std::vector<std::uint64_t> load_goldens(const std::string& path, const std::string& workload) {
  std::vector<std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name, digest;
    std::uint64_t seed = 0;
    std::size_t index = 0;
    if (!(ls >> name >> seed >> index >> digest) || name != workload || seed != kGoldenSeed) {
      continue;
    }
    if (out.size() <= index) out.resize(index + 1);
    out[index] = std::stoull(digest, nullptr, 16);
  }
  return out;
}

bool write_goldens(const std::string& path, const std::string& workload, const Round& r) {
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(workload + " ", 0) != 0 && !line.empty()) kept.push_back(line);
    }
  }
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    kept.push_back(workload + " " + std::to_string(kGoldenSeed) + " " + std::to_string(i) +
                   " " + hex(r.ops[i].digest));
  }
  std::ofstream out(path);
  for (const std::string& line : kept) out << line << "\n";
  return out.good();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::vector<double> kind_ms(const std::vector<const Round*>& rounds,
                            bool (*match)(const std::string&, const char*), const char* key) {
  std::vector<double> out;
  for (const Round* r : rounds) {
    for (const OpRecord& op : r->ops) {
      if (match(op.kind, key)) out.push_back(op.ms);
    }
  }
  return out;
}

bool kind_is(const std::string& kind, const char* key) { return kind == key; }
bool kind_has(const std::string& kind, const char* key) {
  return kind.rfind("shootout/", 0) == 0 && kind.find(key) != std::string::npos;
}

/// Median over rounds of the per-round total of spans called `name`.
double span_ms_per_round(const SpanLog& log, const char* name) {
  std::map<int, double> per_round;
  for (const SpanRecord& s : log.spans()) {
    if (std::string_view(s.name) == name) per_round[s.round] += s.end_ms - s.start_ms;
  }
  std::vector<double> v;
  for (const auto& [round, ms] : per_round) v.push_back(ms);
  return median(v);
}

/// runner.idle_share and runner.straggler_ms of one fanned-out round.
std::pair<double, double> runner_idle(const Round& r) {
  std::map<std::size_t, double> last_end;
  double busy = 0.0;
  for (std::size_t i = 0; i < r.fanned; ++i) {
    const OpRecord& op = r.ops[i];
    busy += op.ms;
    last_end[op.worker] = std::max(last_end[op.worker], op.end_ms);
  }
  double first_idle = r.fanout_ms;
  for (const auto& [w, end] : last_end) first_idle = std::min(first_idle, end);
  if (last_end.size() < static_cast<std::size_t>(r.jobs)) first_idle = 0.0;  // a worker never ran
  const double capacity = r.fanout_ms * r.jobs;
  return {capacity > 0 ? 1.0 - busy / capacity : 0.0, r.fanout_ms - first_idle};
}

int parse_args(int argc, char** argv, Args& a) {
  using arnet::runner::parse_string_flag;
  a.workload = parse_string_flag(argc, argv, "--workload");
  try {
    a.seed = std::stoull(parse_string_flag(argc, argv, "--seed", "1"));
    a.seconds = std::stod(parse_string_flag(argc, argv, "--seconds", "10"));
    a.trace = std::stoi(parse_string_flag(argc, argv, "--trace", "0")) != 0;
  } catch (const std::exception&) {
    return 2;
  }
  a.goldens = parse_string_flag(argc, argv, "--goldens");
  a.write_goldens = parse_string_flag(argc, argv, "--write-goldens");
  a.spans_dir = parse_string_flag(argc, argv, "--spans-dir");
  return a.seconds > 0 ? 0 : 2;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

int run(int argc, char** argv) {
  Args args;
  if (parse_args(argc, argv, args) != 0) {
    std::cerr << "usage: arbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--goldens FILE] [--write-goldens FILE] [--spans-dir DIR]\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::cerr << "unknown workload '" << args.workload
              << "' (packet_sessions, fleet_serving, city_day, vision_recognition)\n";
    return 2;
  }
  const Clock::time_point origin = Clock::now();
  SpanLog spans(origin);  // traced rounds only
  SpanLog setup_spans(origin);

  // ---- set-up; the median over the run is setup_s ------------------------
  std::vector<double> setup_ms;
  auto set_up = [&] {
    const Clock::time_point a = Clock::now();
    w->setup(args.trace ? &setup_spans : nullptr);
    setup_ms.push_back(ms_between(a, Clock::now()));
  };
  set_up();

  // ---- timed rounds --------------------------------------------------------
  const Clock::time_point t0 = Clock::now();
  auto elapsed_s = [&] { return ms_between(t0, Clock::now()) / 1000.0; };
  // Serial and fanned rounds take turns for the whole run, so both medians
  // sample the same stretch of host time; a traced run adds a traced serial
  // round to each turn. The workload is set up again before every turn
  // after the first, so the set-up median samples that stretch too.
  std::vector<Round> rounds;
  int traced_index = 0;
  for (std::size_t turn = 0; turn < 2 || elapsed_s() < args.seconds; ++turn) {
    if (turn > 0) set_up();
    rounds.push_back(run_round(*w, args.seed, 1, nullptr, 0));
    if (args.trace) rounds.push_back(run_round(*w, args.seed, 1, &spans, traced_index++));
    rounds.push_back(run_round(*w, args.seed, kJobs, nullptr, 0));
  }

  // ---- output checks -------------------------------------------------------
  const Round& first = rounds.front();
  std::vector<std::uint64_t> reference;
  std::string reference_name = "first serial round";
  if (!args.goldens.empty() && args.write_goldens.empty() && args.seed == kGoldenSeed) {
    reference = load_goldens(args.goldens, args.workload);
    if (!reference.empty()) reference_name = "committed golden";
  }
  std::vector<std::string> problems;
  if (reference.empty()) {
    for (const OpRecord& op : first.ops) reference.push_back(op.digest);
  } else if (reference.size() != first.ops.size()) {
    problems.push_back("golden holds " + std::to_string(reference.size()) + " ops, a round has " +
                       std::to_string(first.ops.size()));
    reference.assign(first.ops.size(), 0);
  }
  std::int64_t attempted = 0, failed = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t i = 0; i < rounds[r].ops.size(); ++i) {
      ++attempted;
      const std::string why = verdict(rounds[r].ops[i], reference[i]);
      if (why.empty()) continue;
      ++failed;
      if (failed <= 5) {
        problems.push_back("round " + std::to_string(r) + " op " + std::to_string(i) + " (" +
                           rounds[r].ops[i].kind + "): " + why + " [" + reference_name + "]");
      }
    }
  }

  // ---- self-checks of the benchmark ----------------------------------------
  // The checks must bite: a corrupted result and a corrupted golden fail.
  for (std::size_t i : {std::size_t{0}, first.ops.size() - 1}) {
    if (verdict(w->corrupted(i), reference[i]).empty()) {
      problems.push_back("self-check: a corrupted result of op " + std::to_string(i) +
                         " passed the output check");
    }
  }
  if (verdict(first.ops[0], reference[0] ^ 1).empty()) {
    problems.push_back("self-check: a corrupted golden passed the output check");
  }
  // Same seed, same work: exact counts repeat in every round.
  const Counts base = round_counts(first);
  for (const Round& r : rounds) {
    const Counts c = round_counts(r);
    for (const auto& [k, v] : base) {
      auto it = c.find(k);
      if (it == c.end() || it->second != v) {
        problems.push_back("self-check: count " + k + " differs between rounds of one seed");
        break;
      }
    }
  }

  std::vector<const Round*> serial, fanned, untraced, traced;
  for (const Round& r : rounds) {
    (r.jobs > 1 ? fanned : serial).push_back(&r);
    if (r.jobs == 1) (r.traced ? traced : untraced).push_back(&r);
  }
  auto walls = [](const std::vector<const Round*>& rs) {
    std::vector<double> v;
    for (const Round* r : rs) v.push_back(r->wall_ms);
    return v;
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> op_ms;
    for (const Round* r : serial) {
      for (const OpRecord& op : r->ops) op_ms.push_back(op.ms);
    }
    metrics = {
        {"wall_s", median(walls(serial)) / 1000.0, "s"},
        {"jobs_wall_s", median(walls(fanned)) / 1000.0, "s"},
        {"op_p50_ms", median(op_ms), "ms"},
        {"op_tail_ms", tail(op_ms), "ms"},
        {"setup_s", median(setup_ms) / 1000.0, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::cout << "ops timed serially: " << op_ms.size() << " (tail = the value with 10 ops "
              << "above it, p" << fmt(100.0 * (1.0 - 10.0 / std::max<double>(11, op_ms.size())))
              << ")\n";
  } else {
    const Counts tc = round_counts(*traced.front());
    auto count = [&](const char* k) {
      auto it = tc.find(k);
      return it == tc.end() ? 0.0 : it->second;
    };
    double sim_events = 0.0, sim_ms = 0.0, ticks = 0.0;
    for (const Round* r : traced) {
      for (const OpRecord& op : r->ops) {
        auto it = op.counts.find("sim.events");
        if (it != op.counts.end() && it->second > 0) {
          sim_events += it->second;
          sim_ms += op.ms;
        }
        auto ft = op.counts.find("fluid.ticks");
        if (ft != op.counts.end()) ticks += ft->second;
      }
    }
    double step_ms = 0.0;
    for (double d : spans.durations("fluid.step")) step_ms += d;
    std::vector<double> idle, straggler;
    for (const Round* r : fanned) {
      const auto [share, ms] = runner_idle(*r);
      idle.push_back(share);
      straggler.push_back(ms);
    }
    auto med_kind = [&](bool (*m)(const std::string&, const char*), const char* key) {
      return median(kind_ms(traced, m, key));
    };
    const double untraced_wall = median(walls(untraced));
    const double arrivals = count("fleet.arrivals");
    const double frames = count("vision.frames");
    metrics = {
        {"sim.events", count("sim.events"), "count"},
        {"sim.events_per_s", sim_ms > 0 ? sim_events / (sim_ms / 1000.0) : 0.0, "1/s"},
        {"net.packets_tx", count("net.packets_tx"), "count"},
        {"net.drops", count("net.drops"), "count"},
        {"wireless.wifi_op_ms", med_kind(kind_has, "/wifi"), "ms"},
        {"wireless.lte_op_ms", med_kind(kind_has, "/lte"), "ms"},
        {"wireless.nr5g_op_ms", med_kind(kind_has, "/nr5g"), "ms"},
        {"transport.artp_op_ms", med_kind(kind_has, "/artp/"), "ms"},
        {"transport.reno_op_ms", med_kind(kind_has, "/reno/"), "ms"},
        {"transport.cubic_op_ms", med_kind(kind_has, "/cubic/"), "ms"},
        {"transport.bbr_op_ms", med_kind(kind_has, "/bbr/"), "ms"},
        {"transport.quic_op_ms", med_kind(kind_has, "/quic/"), "ms"},
        {"transport.retx", count("transport.retx"), "count"},
        {"transport.shed", count("transport.shed"), "count"},
        {"mar.session_ms", med_kind(kind_is, "table2"), "ms"},
        {"mar.frames", count("mar.frames"), "count"},
        {"fleet.open_op_ms", med_kind(kind_is, "fleet/open"), "ms"},
        {"fleet.unbatched_op_ms", med_kind(kind_is, "fleet/unbatched"), "ms"},
        {"fleet.admission_op_ms", med_kind(kind_is, "fleet/admission"), "ms"},
        {"fleet.autoscale_op_ms", med_kind(kind_is, "fleet/autoscale"), "ms"},
        {"fleet.frames", count("fleet.frames"), "count"},
        {"fleet.admit_ratio", arrivals > 0 ? count("fleet.admitted") / arrivals : 0.0, "ratio"},
        {"obs.merge_ms", span_ms_per_round(spans, "obs.merge"), "ms"},
        {"obs.export_ms", span_ms_per_round(spans, "obs.write_jsonl"), "ms"},
        {"obs.export_bytes", count("obs.export_bytes"), "bytes"},
        {"trace.spans_retained", count("trace.spans_retained"), "count"},
        {"trace.sample_export_ms", span_ms_per_round(spans, "trace.write_samples"), "ms"},
        {"fluid.ticks", count("fluid.ticks"), "count"},
        {"fluid.step_us", ticks > 0 ? step_ms * 1000.0 / ticks : 0.0, "us"},
        {"fluid.finish_ms", median(spans.durations("fluid.finish")), "ms"},
        {"vision.extract_ms", median(spans.durations("vision.extract")), "ms"},
        {"vision.recognize_ms", median(spans.durations("vision.recognize")), "ms"},
        {"vision.features", count("vision.features"), "count"},
        {"vision.recognized_ratio", frames > 0 ? count("vision.recognized") / frames : 0.0,
         "ratio"},
        {"vision.db_build_ms", median(setup_spans.durations("vision.db_build")), "ms"},
        {"runner.idle_share", median(idle), "ratio"},
        {"runner.straggler_ms", median(straggler), "ms"},
        {"bench.trace_overhead_pct",
         untraced_wall > 0 ? 100.0 * (median(walls(traced)) / untraced_wall - 1.0) : 0.0, "%"},
    };
    // Bypassed layers read zero work. Most of these zeros hold by
    // construction (no workload but packet_sessions and fleet_serving runs a
    // simulator, and only fleet_serving counts fleet frames). The net counts
    // on fleet_serving are measured: they come from every event of the
    // cell's own tracer, and `live` shows that counter saw events.
    const std::map<std::string, std::vector<const char*>> live = {
        {"packet_sessions", {"sim.events", "net.packets_tx"}},
        {"fleet_serving", {"sim.events", "fleet.frames", "trace.events"}},
        {"city_day", {"fluid.ticks"}},
        {"vision_recognition", {"vision.features"}},
    };
    for (const char* k : live.at(args.workload)) {
      if (count(k) <= 0.0) {
        problems.push_back(std::string("self-check: a layer that must work read none: ") + k);
      }
    }
    const std::map<std::string, std::vector<const char*>> bypassed = {
        {"packet_sessions", {"fleet.frames", "fluid.ticks", "vision.features"}},
        {"fleet_serving", {"net.packets_tx", "net.drops", "fluid.ticks", "vision.features"}},
        {"city_day", {"sim.events", "net.packets_tx", "fleet.frames", "vision.features"}},
        {"vision_recognition", {"sim.events", "net.packets_tx", "fleet.frames", "fluid.ticks"}},
    };
    for (const char* k : bypassed.at(args.workload)) {
      if (count(k) != 0.0) {
        problems.push_back(std::string("self-check: bypassed layer did work: ") + k + " = " +
                           fmt(count(k)));
      }
    }

    // Layer self-time table of the traced rounds.
    double traced_ms = 0.0;
    for (const Round* r : traced) traced_ms += r->wall_ms;
    std::cout << "layer self time over " << traced.size() << " traced rounds ("
              << fmt(traced_ms) << " ms):\n"
              << "  " << std::left << std::setw(10) << "layer" << std::right << std::setw(14)
              << "span ms" << std::setw(14) << "self ms" << std::setw(10) << "self %\n";
    for (const auto& [layer, t] : spans.layer_times()) {
      std::cout << "  " << std::left << std::setw(10) << layer << std::right << std::fixed
                << std::setprecision(2) << std::setw(14) << t.first << std::setw(14) << t.second
                << std::setw(9) << (traced_ms > 0 ? 100.0 * t.second / traced_ms : 0.0) << "\n"
                << std::defaultfloat;
    }
    if (!args.spans_dir.empty()) {
      std::filesystem::create_directories(args.spans_dir);
      const std::string path = args.spans_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".spans.jsonl";
      std::ofstream os(path);
      setup_spans.write_jsonl(os, args.workload);
      spans.write_jsonl(os, args.workload);
      std::cout << "spans: " << path << "\n";
    }
  }

  if (!args.write_goldens.empty()) {
    if (args.seed != kGoldenSeed) {
      problems.push_back("goldens are recorded on seed " + std::to_string(kGoldenSeed) + " only");
    } else if (!write_goldens(args.write_goldens, args.workload, first)) {
      problems.push_back("cannot write " + args.write_goldens);
    }
  }

  // ---- report --------------------------------------------------------------
  const bool correct = failed == 0 && problems.empty();
  std::cout << "workload " << args.workload << ", seed " << args.seed << ", "
            << (args.trace ? "traced" : "untraced") << " run: " << serial.size()
            << " serial rounds, " << fanned.size() << " rounds at " << kJobs << " jobs, "
            << w->ops() << " ops per round\n";
  for (const auto* group : {&serial, &fanned}) {
    std::cout << (group == &serial ? "serial" : "fanned") << " round ms:";
    for (const Round* r : *group) std::cout << " " << std::fixed << std::setprecision(1)
                                            << r->wall_ms << (r->traced ? "t" : "");
    std::cout << std::defaultfloat << "\n";
  }
  std::cout << "results (simulated outcomes; not performance): round digest "
            << hex(round_digest(first)) << "\n";
  for (const auto& [k, v] : base) std::cout << "  " << k << " = " << fmt(v) << "\n";
  for (const std::string& p : problems) std::cout << "FAIL: " << p << "\n";
  std::cout << "checks: " << attempted << " ops attempted, " << failed << " failed, fail_ratio "
            << fmt(attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0)
            << " (" << reference_name << ")\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(26) << m.name << std::right << std::setw(20)
              << fmt(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << fmt(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace arbench

int main(int argc, char** argv) { return arbench::run(argc, argv); }
