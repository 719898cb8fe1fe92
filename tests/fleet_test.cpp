// Tests of the arnet::fleet multi-user serving layer: population arrival
// determinism, batch formation edge cases, admission hysteresis, balancer
// tie-breaking, autoscaler cooldown, and bit-equality of the scale_fleet
// capacity cells between serial and parallel sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arnet/check/assert.hpp"
#include "arnet/fleet/admission.hpp"
#include "arnet/fleet/autoscaler.hpp"
#include "arnet/fleet/balancer.hpp"
#include "arnet/fleet/fleet.hpp"
#include "arnet/fleet/population.hpp"
#include "arnet/fleet/scenario.hpp"
#include "arnet/fleet/server.hpp"
#include "arnet/fluid/validate.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"
#include "golden.hpp"

namespace arnet {
namespace {

using sim::milliseconds;
using sim::seconds;

// ----------------------------------------------------------- population

TEST(Population, SameSeedMintsIdenticalSessions) {
  sim::Simulator sim_a, sim_b;
  fleet::PopulationConfig cfg;
  cfg.base_arrivals_per_s = 10.0;
  fleet::PopulationModel a(sim_a, cfg, 42), b(sim_b, cfg, 42);

  std::vector<fleet::SessionSpec> got_a, got_b;
  a.set_session_callback([&](const fleet::SessionSpec& s) { got_a.push_back(s); });
  b.set_session_callback([&](const fleet::SessionSpec& s) { got_b.push_back(s); });
  a.start();
  b.start();
  sim_a.run_until(seconds(10));
  sim_b.run_until(seconds(10));

  ASSERT_GT(got_a.size(), 50u);
  ASSERT_EQ(got_a.size(), got_b.size());
  for (std::size_t i = 0; i < got_a.size(); ++i) {
    EXPECT_EQ(got_a[i].id, got_b[i].id);
    EXPECT_EQ(got_a[i].arrival, got_b[i].arrival);
    EXPECT_EQ(got_a[i].lifetime, got_b[i].lifetime);
    EXPECT_EQ(got_a[i].device, got_b[i].device);
    EXPECT_EQ(got_a[i].pos.x_km, got_b[i].pos.x_km);
    EXPECT_EQ(got_a[i].pos.y_km, got_b[i].pos.y_km);
  }
}

TEST(Population, SessionAttributesIndependentOfArrivalHistory) {
  // Session k's identity comes from derive_seed(seed, k + 1), never from how
  // many draws the arrival process consumed before it.
  sim::Simulator sim;
  fleet::PopulationConfig calm, bursty;
  calm.base_arrivals_per_s = 1.0;
  bursty = calm;
  bursty.process = fleet::ArrivalProcess::kMmpp;
  bursty.burst_multiplier = 5.0;
  fleet::PopulationModel a(sim, calm, 7), b(sim, bursty, 7);
  for (std::uint64_t id : {0ull, 5ull, 99ull}) {
    const fleet::SessionSpec sa = a.make_session(id, seconds(3));
    const fleet::SessionSpec sb = b.make_session(id, seconds(8));
    EXPECT_EQ(sa.device, sb.device);
    EXPECT_EQ(sa.lifetime, sb.lifetime);
    EXPECT_EQ(sa.pos.x_km, sb.pos.x_km);
  }
}

TEST(Population, DiurnalProfileModulatesRate) {
  sim::Simulator sim;
  fleet::PopulationConfig cfg;
  cfg.base_arrivals_per_s = 10.0;
  cfg.profile.curve = {0.5, 2.0};
  cfg.profile.period = seconds(10);
  fleet::PopulationModel p(sim, cfg, 1);
  EXPECT_DOUBLE_EQ(cfg.profile.multiplier(seconds(2)), 0.5);
  EXPECT_DOUBLE_EQ(cfg.profile.multiplier(seconds(7)), 2.0);
  EXPECT_DOUBLE_EQ(cfg.profile.multiplier(seconds(12)), 0.5);  // wraps
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(2)), 5.0);
  EXPECT_DOUBLE_EQ(p.rate_at(seconds(7)), 20.0);
}

// A population with no users schedules no arrival: the interarrival draw at
// rate 0 would be infinite, and casting it to sim::Time is undefined.
TEST(Population, ZeroUserCellIsEmpty) {
  const fleet::CellResult r = fleet::run_capacity_cell({.name = "empty", .offered_users = 0}, 1);
  EXPECT_EQ(r.arrivals, 0u);
  EXPECT_EQ(r.admitted + r.downgraded + r.rejected, 0u);
  EXPECT_EQ(r.frames, 0);
  EXPECT_EQ(r.results, 0);
  EXPECT_EQ(r.misses, 0);
  EXPECT_EQ(r.served_fps, 0.0);
}

TEST(Population, NegativeOrNonFiniteRateIsRejected) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  sim::Simulator sim;
  for (double rate : {-1.0, std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    fleet::PopulationConfig cfg;
    cfg.base_arrivals_per_s = rate;
    EXPECT_THROW(fleet::PopulationModel(sim, cfg, 1), check::CheckError) << rate;
  }
  EXPECT_THROW(fleet::run_capacity_cell({.name = "negative", .offered_users = -5}, 1),
               check::CheckError);
}

// The attributes of the first 200 sessions a Poisson and an MMPP population
// mint: id, lifetime, device class and position, each session drawn from its
// own derive_seed(seed, id + 1) stream. Fleet.CapacityCellGoldens pins only
// arrival times, so a change to the order or number of draws on the
// per-session stream shows up here first.
TEST(Population, SessionAttributeGolden) {
  auto digest = [](const fleet::PopulationConfig& cfg, std::uint64_t seed) {
    sim::Simulator sim;
    fleet::PopulationModel model(sim, cfg, seed);
    std::uint64_t h = golden::kFnvBasis;
    std::uint64_t seen = 0;
    model.set_session_callback([&](const fleet::SessionSpec& s) {
      if (seen == 200) return;
      ++seen;
      h = golden::fnv1a_word(h, s.id);
      h = golden::fnv1a_word(h, static_cast<std::uint64_t>(s.lifetime));
      h = golden::fnv1a_word(h, static_cast<std::uint64_t>(s.device));
      h = golden::fnv1a_word(h, std::bit_cast<std::uint64_t>(s.pos.x_km));
      h = golden::fnv1a_word(h, std::bit_cast<std::uint64_t>(s.pos.y_km));
      if (seen == 200) model.stop();
    });
    model.start();
    sim.run_until(seconds(600));
    return golden::Row{}.u(seen).x(h).str();
  };
  fleet::PopulationConfig poisson;
  poisson.base_arrivals_per_s = 10.0;
  fleet::PopulationConfig mmpp;
  mmpp.process = fleet::ArrivalProcess::kMmpp;
  mmpp.base_arrivals_per_s = 4.0;
  mmpp.burst_multiplier = 5.0;
  mmpp.mean_lifetime_s = 7.5;
  mmpp.area_km = 1.5;
  EXPECT_EQ(digest(poisson, 42), "200 f7a362835b2e630d");
  EXPECT_EQ(digest(mmpp, 9), "200 e8fe2a4d76e09c09");
}

// ---------------------------------------------------------- batch formation

struct ServerFixture {
  sim::Simulator sim;
  obs::MetricsRegistry reg;
  std::vector<sim::Time> done_at;

  fleet::ComputeRequest request(std::uint64_t uid, sim::Time work = milliseconds(3)) {
    fleet::ComputeRequest r;
    r.uid = uid;
    r.work = work;
    r.done = [this] { done_at.push_back(sim.now()); };
    return r;
  }
};

TEST(EdgeServer, PartialBatchExecutesOnTimeout) {
  ServerFixture f;
  fleet::EdgeServerConfig cfg;
  cfg.batch.setup = milliseconds(1);
  cfg.batch.marginal = 0.5;
  fleet::EdgeServer srv(f.sim, cfg);

  // 3 requests at t=0: far below kMaxBatch, so only the timeout can fire the
  // batch. service = setup + w_max + marginal * (sum - w_max) = 1 + 3 + 3 = 7.
  for (int i = 0; i < 3; ++i) srv.submit(f.request(static_cast<std::uint64_t>(i)));
  f.sim.run();
  ASSERT_EQ(f.done_at.size(), 3u);
  EXPECT_EQ(srv.batches(), 1);
  for (sim::Time t : f.done_at) EXPECT_EQ(t, fleet::kBatchTimeout + milliseconds(7));
}

TEST(EdgeServer, BatchCapsAtMaxSize) {
  ServerFixture f;
  fleet::EdgeServerConfig cfg;
  cfg.batch.executors = 1;
  cfg.telemetry.metrics = &f.reg;
  fleet::EdgeServer srv(f.sim, cfg);

  // 20 requests at t=0 on one lane: batches of 8, 8, then the 4-tail.
  static_assert(fleet::kMaxBatch == 8);
  for (int i = 0; i < 20; ++i) srv.submit(f.request(static_cast<std::uint64_t>(i)));
  f.sim.run();
  EXPECT_EQ(srv.requests(), 20);
  EXPECT_EQ(srv.batches(), 3);
  const obs::Histogram& h = f.reg.histogram("fleet.batch_size", cfg.entity);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.max(), 8.0);
  EXPECT_EQ(h.min(), 4.0);
}

TEST(EdgeServer, UnbatchedModeServesOneAtATime) {
  ServerFixture f;
  fleet::EdgeServerConfig cfg;
  cfg.batch.enabled = false;
  cfg.batch.executors = 1;
  fleet::EdgeServer srv(f.sim, cfg);
  for (int i = 0; i < 4; ++i) srv.submit(f.request(static_cast<std::uint64_t>(i)));
  f.sim.run();
  EXPECT_EQ(srv.batches(), 4);
  ASSERT_EQ(f.done_at.size(), 4u);
  // Strictly sequential completions: each waits for the previous batch.
  for (std::size_t i = 1; i < f.done_at.size(); ++i) {
    EXPECT_GT(f.done_at[i], f.done_at[i - 1]);
  }
}

TEST(EdgeServer, BatchingBeatsSerialServiceUnderBacklog) {
  // The whole point of batching: the same backlog drains faster.
  ServerFixture batched, serial;
  fleet::EdgeServerConfig on, off;
  on.batch.executors = off.batch.executors = 1;
  off.batch.enabled = false;
  fleet::EdgeServer a(batched.sim, on), b(serial.sim, off);
  for (int i = 0; i < 32; ++i) {
    a.submit(batched.request(static_cast<std::uint64_t>(i)));
    b.submit(serial.request(static_cast<std::uint64_t>(i)));
  }
  batched.sim.run();
  serial.sim.run();
  EXPECT_LT(batched.sim.now(), serial.sim.now());
}

// ---------------------------------------------------------------- admission

TEST(Admission, HysteresisDoesNotFlap) {
  fleet::AdmissionConfig cfg;
  cfg.min_samples = 8;
  cfg.window = 32;
  cfg.allow_downgrade = false;
  fleet::AdmissionController ac(cfg);

  // Saturate the window with over-budget latencies: trips to overloaded.
  for (int i = 0; i < 32; ++i) ac.observe_latency_ms(90.0);
  EXPECT_EQ(ac.decide(seconds(1), 1), fleet::AdmissionDecision::kReject);
  EXPECT_TRUE(ac.overloaded());

  // p99 drifts down into the hysteresis band [60, 75): still rejecting —
  // a controller without the band would flap admit/reject here.
  for (int i = 0; i < 32; ++i) {
    ac.observe_latency_ms(70.0);
    EXPECT_EQ(ac.decide(seconds(2) + milliseconds(i), 100 + static_cast<std::uint64_t>(i)),
              fleet::AdmissionDecision::kReject);
  }
  EXPECT_TRUE(ac.overloaded());

  // Only clearing the lower water mark (75 * 0.8 = 60) readmits.
  for (int i = 0; i < 32; ++i) ac.observe_latency_ms(40.0);
  EXPECT_EQ(ac.decide(seconds(3), 200), fleet::AdmissionDecision::kAdmit);
  EXPECT_FALSE(ac.overloaded());

  // Exactly one reject->admit transition in the whole log.
  int transitions = 0;
  const auto& log = ac.log();
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i].decision != log[i - 1].decision) ++transitions;
  }
  EXPECT_EQ(transitions, 1);
}

TEST(Admission, DowngradeBandSitsBelowRejectLine) {
  fleet::AdmissionConfig cfg;
  cfg.min_samples = 8;
  cfg.window = 16;
  fleet::AdmissionController ac(cfg);
  // p99 ~ 70 ms: above the downgrade line 0.9 * 75 = 67.5, below 75.
  for (int i = 0; i < 16; ++i) ac.observe_latency_ms(70.0);
  EXPECT_EQ(ac.decide(seconds(1), 1), fleet::AdmissionDecision::kDowngrade);
  EXPECT_FALSE(ac.overloaded());
}

TEST(Admission, DisabledAdmitsEverythingSilently) {
  fleet::AdmissionConfig cfg;
  cfg.enabled = false;
  fleet::AdmissionController ac(cfg);
  for (int i = 0; i < 64; ++i) ac.observe_latency_ms(500.0);
  EXPECT_EQ(ac.decide(seconds(1), 1), fleet::AdmissionDecision::kAdmit);
  EXPECT_TRUE(ac.log().empty());
}

TEST(Admission, ZeroWindowIsRejected) {
  check::ScopedFailPolicy policy(check::FailPolicy::kThrow);
  fleet::AdmissionConfig cfg;
  cfg.window = 0;
  EXPECT_THROW(fleet::AdmissionController{cfg}, check::CheckError);
}

namespace {

/// The projection as a copy of the latency ring plus nth_element: the
/// definition the controller's cached projection must reproduce bit for bit.
class P99Reference {
 public:
  explicit P99Reference(std::size_t window) : window_(window) {}

  void observe(double ms) {
    if (ring_.size() < window_) {
      ring_.push_back(ms);
    } else {
      ring_[next_] = ms;
      next_ = (next_ + 1) % window_;
    }
  }

  double p99() const {
    if (ring_.empty()) return 0.0;
    std::vector<double> copy = ring_;
    const auto idx = static_cast<std::size_t>(0.99 * static_cast<double>(copy.size() - 1));
    std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(idx),
                     copy.end());
    return copy[idx];
  }

 private:
  std::size_t window_;
  std::vector<double> ring_;
  std::size_t next_ = 0;
};

enum class Stream { kAscending, kDescending, kRandom, kRandomTies, kTied, kSortedBlocks };

std::vector<double> make_stream(Stream kind, std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    switch (kind) {
      case Stream::kAscending: v[i] = 10.0 + 0.25 * x; break;
      case Stream::kDescending: v[i] = 5000.0 - 0.25 * x; break;
      case Stream::kRandom: v[i] = rng.uniform(1.0, 200.0); break;
      case Stream::kRandomTies: v[i] = std::floor(rng.uniform(0.0, 8.0)) * 12.5; break;
      case Stream::kTied: v[i] = 75.0; break;
      case Stream::kSortedBlocks: v[i] = rng.uniform(1.0, 200.0); break;
    }
  }
  // The fluid stencil's pattern: each tick feeds 32 ascending quantiles.
  if (kind == Stream::kSortedBlocks) {
    for (std::size_t b = 0; b < n; b += 32) {
      std::sort(v.begin() + static_cast<std::ptrdiff_t>(b),
                v.begin() + static_cast<std::ptrdiff_t>(std::min(n, b + 32)));
    }
  }
  return v;
}

}  // namespace

TEST(Admission, ProjectedP99MatchesNthElementReference) {
  const std::size_t windows[] = {1, 2, 16, 31, 32, 33, 256, 1000};
  const Stream streams[] = {Stream::kAscending, Stream::kDescending,
                            Stream::kRandom,    Stream::kRandomTies,
                            Stream::kTied,      Stream::kSortedBlocks};
  // (observations per query round, queries per round): one each, a fluid
  // tick's 32 observations per query, 31 so that the samples between two
  // queries straddle block boundaries, and repeated queries of one window.
  const std::pair<std::size_t, int> mixes[] = {{1, 1}, {32, 1}, {31, 1}, {1, 3}};
  std::uint64_t seed = 7;
  for (std::size_t window : windows) {
    for (Stream kind : streams) {
      for (const auto& [per_round, queries] : mixes) {
        fleet::AdmissionConfig cfg;
        cfg.window = window;
        fleet::AdmissionController ac(cfg);
        P99Reference ref(window);
        ASSERT_EQ(ac.projected_p99_ms(), 0.0);
        // Fill the ring, then wrap past its start more than once.
        const std::vector<double> values = make_stream(kind, 2 * window + 97, ++seed);
        for (std::size_t i = 0; i < values.size(); ++i) {
          ac.observe_latency_ms(values[i]);
          ref.observe(values[i]);
          if ((i + 1) % per_round != 0 && i + 1 != values.size()) continue;
          for (int q = 0; q < queries; ++q) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(ac.projected_p99_ms()),
                      std::bit_cast<std::uint64_t>(ref.p99()))
                << "window " << window << " stream " << static_cast<int>(kind)
                << " per_round " << per_round << " after " << i + 1 << " observations";
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------------- balancer

TEST(Balancer, TiesBreakTowardLowestIndex) {
  sim::Simulator sim;
  fleet::EdgeServerConfig cfg;
  std::vector<std::unique_ptr<fleet::EdgeServer>> servers;
  for (int i = 0; i < 3; ++i) servers.push_back(std::make_unique<fleet::EdgeServer>(sim, cfg));

  fleet::LoadBalancer least(fleet::BalancerPolicy::kLeastOutstanding);
  fleet::LoadBalancer ewma(fleet::BalancerPolicy::kLatencyEwma);
  // All idle, all EWMAs zero: deterministic lowest index, repeatedly.
  EXPECT_EQ(least.pick(servers), 0u);
  EXPECT_EQ(least.pick(servers), 0u);
  EXPECT_EQ(ewma.pick(servers), 0u);

  // Load server 0: least-outstanding moves to the next-lowest tied index.
  fleet::ComputeRequest r;
  r.work = milliseconds(3);
  r.done = [] {};
  servers[0]->submit(std::move(r));
  EXPECT_EQ(least.pick(servers), 1u);
}

TEST(Balancer, RoundRobinCyclesInOrder) {
  sim::Simulator sim;
  fleet::EdgeServerConfig cfg;
  std::vector<std::unique_ptr<fleet::EdgeServer>> servers;
  for (int i = 0; i < 3; ++i) servers.push_back(std::make_unique<fleet::EdgeServer>(sim, cfg));
  fleet::LoadBalancer rr(fleet::BalancerPolicy::kRoundRobin);
  EXPECT_EQ(rr.pick(servers), 0u);
  EXPECT_EQ(rr.pick(servers), 1u);
  EXPECT_EQ(rr.pick(servers), 2u);
  EXPECT_EQ(rr.pick(servers), 0u);
}

// --------------------------------------------------------------- autoscaler

TEST(Autoscaler, SustainAndCooldownGateActions) {
  fleet::AutoscalerConfig cfg;
  cfg.enabled = true;
  cfg.min_servers = 1;
  cfg.max_servers = 4;
  cfg.sustain_ticks = 3;
  cfg.cooldown = seconds(1);
  fleet::Autoscaler as(cfg);

  // Two hot ticks: not sustained yet.
  EXPECT_EQ(as.evaluate(milliseconds(250), 0.9, 2), fleet::ScaleAction::kNone);
  EXPECT_EQ(as.evaluate(milliseconds(500), 0.9, 2), fleet::ScaleAction::kNone);
  // Third consecutive hot tick: scale out.
  EXPECT_EQ(as.evaluate(milliseconds(750), 0.9, 2), fleet::ScaleAction::kOut);
  // Still hot, but inside the cooldown window: held back.
  EXPECT_EQ(as.evaluate(milliseconds(1000), 0.9, 3), fleet::ScaleAction::kNone);
  EXPECT_EQ(as.evaluate(milliseconds(1250), 0.9, 3), fleet::ScaleAction::kNone);
  EXPECT_EQ(as.evaluate(milliseconds(1500), 0.9, 3), fleet::ScaleAction::kNone);
  // Cooldown elapsed and the streak is sustained again: next action.
  EXPECT_EQ(as.evaluate(milliseconds(1800), 0.9, 3), fleet::ScaleAction::kOut);
}

TEST(Autoscaler, RespectsServerBounds) {
  fleet::AutoscalerConfig cfg;
  cfg.enabled = true;
  cfg.min_servers = 2;
  cfg.max_servers = 3;
  cfg.sustain_ticks = 1;
  cfg.cooldown = 0;
  fleet::Autoscaler as(cfg);
  EXPECT_EQ(as.evaluate(milliseconds(250), 0.9, 3), fleet::ScaleAction::kNone);  // at max
  EXPECT_EQ(as.evaluate(milliseconds(500), 0.1, 2), fleet::ScaleAction::kNone);  // at min
  EXPECT_EQ(as.evaluate(milliseconds(750), 0.1, 3), fleet::ScaleAction::kIn);
}

// -------------------------------------------------- end-to-end determinism

TEST(FleetDeterminism, SameSeedSameAdmissionLogAndStats) {
  auto run = [](std::vector<fleet::AdmissionLogEntry>* log) {
    sim::Simulator sim;
    fleet::FleetConfig cfg;
    cfg.seed = 11;
    cfg.population.base_arrivals_per_s = 12.0;
    cfg.population.mean_lifetime_s = 5.0;
    cfg.population.process = fleet::ArrivalProcess::kMmpp;
    cfg.admission.enabled = true;
    fleet::Fleet fl(sim, cfg);
    fl.start();
    sim.run_until(seconds(12));
    fl.stop();
    *log = fl.admission().log();
    return fl.stats();
  };
  std::vector<fleet::AdmissionLogEntry> log_a, log_b;
  const fleet::FleetStats a = run(&log_a);
  const fleet::FleetStats b = run(&log_b);

  EXPECT_GT(a.arrivals, 50u);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].time, log_b[i].time);
    EXPECT_EQ(log_a[i].session, log_b[i].session);
    EXPECT_EQ(log_a[i].decision, log_b[i].decision);
    EXPECT_DOUBLE_EQ(log_a[i].projected_p99_ms, log_b[i].projected_p99_ms);
  }
}

TEST(FleetDeterminism, SerialAndParallelSweepsAreByteIdentical) {
  // Exactly the bench's structure: per-cell registries, merged in run-index
  // order by run_merged and exported as arnet-obs JSONL — the merged JSONL
  // must not depend on the worker count.
  std::vector<fleet::CellConfig> cells;
  for (double users : {30.0, 60.0, 90.0}) {
    fleet::CellConfig c;
    c.name = "cell" + std::to_string(static_cast<int>(users));
    c.offered_users = users;
    c.duration = seconds(4);
    c.mean_lifetime_s = 3.0;
    c.admit = true;
    cells.push_back(c);
  }
  auto sweep = [&cells](int jobs) {
    runner::ExperimentRunner::Config pc;
    pc.jobs = jobs;
    pc.root_seed = 5;
    runner::ExperimentRunner pool(pc);
    const obs::MetricsRegistry merged = pool.run_merged(cells.size(), [&](runner::RunContext& ctx) {
      fleet::run_capacity_cell(cells[ctx.run_index], ctx.seed, {.metrics = &ctx.metrics});
    });
    std::ostringstream os;
    obs::write_jsonl(merged, os);
    return os.str();
  };
  const std::string serial = sweep(1);
  const std::string parallel = sweep(8);
  EXPECT_GT(serial.size(), 1000u);
  EXPECT_EQ(serial, parallel);
}

TEST(Fleet, AutoscalerAddsServersUnderOverload) {
  sim::Simulator sim;
  fleet::FleetConfig cfg;
  cfg.seed = 3;
  cfg.population.base_arrivals_per_s = 15.0;
  cfg.population.mean_lifetime_s = 10.0;
  cfg.servers = 1;
  cfg.admission.enabled = false;
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.min_servers = 1;
  cfg.autoscaler.max_servers = 6;
  fleet::Fleet fl(sim, cfg);
  fl.start();
  sim.run_until(seconds(15));
  fl.stop();
  EXPECT_GT(fl.active_servers(), 1u);
  EXPECT_FALSE(fl.autoscaler().events().empty());
}

// ------------------------------------------------------ capacity goldens

namespace {

using golden::fnv1a_word;
using golden::kFnvBasis;
using golden::Row;

std::string render(const fleet::CellResult& r) {
  return Row{}
      .s(r.name).u(r.arrivals).u(r.admitted).u(r.downgraded).u(r.rejected)
      .i(r.frames).i(r.results).i(r.misses)
      .d(r.mean_ms).d(r.min_ms).d(r.max_ms).d(r.p50_ms).d(r.p90_ms).d(r.p99_ms)
      .d(r.miss_rate).d(r.served_fps).u(r.servers_final).i(r.sim_events).d(r.sim_seconds)
      .str();
}

std::string render(const fluid::FluidResult& r) {
  std::uint64_t occ = kFnvBasis;
  for (double v : r.occupancy) occ = fnv1a_word(occ, std::bit_cast<std::uint64_t>(v));
  return Row{}
      .s(r.name).u(r.arrivals).u(r.admitted).u(r.downgraded).u(r.rejected)
      .i(r.frames).i(r.misses)
      .d(r.mean_ms).d(r.min_ms).d(r.max_ms).d(r.p50_ms).d(r.p90_ms).d(r.p99_ms)
      .d(r.miss_rate).d(r.served_fps).d(r.peak_sessions).d(r.knee_sessions)
      .i(r.first_breach).d(r.backlog_end).i(r.ticks).d(r.sim_seconds)
      .u(r.occupancy.size()).x(occ)
      .str();
}

fleet::CellConfig golden_cell(const std::string& name, double users) {
  fleet::CellConfig c;
  c.name = name;
  c.offered_users = users;
  return c;
}

}  // namespace

// Every CellResult field of four capacity cells (open-loop batched,
// admission on, autoscale on, MMPP arrivals), the arrival times of an MMPP
// population under an active phase-shifted profile, and the packet/fluid
// ValidationRow at 50 users. Recorded at commit 8d836ef, before the packet
// fleet and the fluid cell shared one edge-cell description; any change to
// the population, frame-cost or site-layout arithmetic shows up here.
TEST(Fleet, CapacityCellGoldens) {
  fleet::CellConfig open = golden_cell("open", 80);
  fleet::CellConfig admit = golden_cell("admit", 160);
  admit.admit = true;
  fleet::CellConfig scale = golden_cell("autoscale", 160);
  scale.autoscale = true;
  fleet::CellConfig mmpp = golden_cell("mmpp", 60);
  mmpp.process = fleet::ArrivalProcess::kMmpp;
  struct Golden {
    fleet::CellConfig cell;
    std::uint64_t seed;
    const char* row;
  };
  // Seed 9 puts the MMPP cell through a burst: 215 arrivals where its
  // Poisson twin sees 191.
  const Golden cells[] = {
      {open, 7,
       "open 254 254 0 0 52284 52180 355 0x1.3385356696f69p+5 0x1.402dfa43fe5c9p+4 "
       "0x1.527cd31769a91p+6 0x1.0e7afc04c8bcap+5 0x1.e300e30446b6ap+5 0x1.20b779207d4e1p+6 "
       "0x1.bddda8476ec79p-8 0x1.b2d5555555555p+10 2 171774 0x1.ep+4"},
      {admit, 7,
       "admit 469 204 13 252 42731 42657 17 0x1.242bc0e1326edp+5 0x1.3dd8a222d5172p+4 "
       "0x1.41359ff4fd6d8p+6 0x1.fec6aa087ca64p+4 0x1.db02c19637e55p+5 0x1.08f14cec41dd2p+6 "
       "0x1.a1e2fd4b1b657p-12 0x1.637999999999ap+10 2 143553 0x1.ep+4"},
      {scale, 7,
       "autoscale 469 469 0 0 97149 96994 152 0x1.41e47e14de49bp+5 0x1.42baf74cd3177p+4 "
       "0x1.625fe69270b07p+6 0x1.298c20d5629d8p+5 0x1.dd7530a690f8ep+5 0x1.0fee13e3e293p+6 "
       "0x1.9acec971e3306p-10 0x1.9424444444444p+11 5 315903 0x1.ep+4"},
      {mmpp, 9,
       "mmpp 215 215 0 0 52274 52203 1095 0x1.45b4789c3afa4p+5 0x1.409fa97e132b5p+4 "
       "0x1.8ead27c393682p+6 0x1.1c432d2bb2357p+5 0x1.eaee0daa0cae6p+5 0x1.4170e4fb97bb5p+6 "
       "0x1.57aae82e7d41ap-6 0x1.b306666666666p+10 2 171106 0x1.ep+4"},
  };
  for (const Golden& g : cells) {
    EXPECT_EQ(render(fleet::run_capacity_cell(g.cell, g.seed)), g.row);
  }

  sim::Simulator sim;
  fleet::PopulationConfig pop;
  pop.process = fleet::ArrivalProcess::kMmpp;
  pop.base_arrivals_per_s = 6.0;
  pop.burst_dwell_mean_s = 2.0;
  pop.calm_dwell_mean_s = 4.0;
  pop.profile.curve = {0.5, 2.0, 1.0, 1.5};
  pop.profile.period = seconds(20);
  pop.profile.phase = seconds(7);
  fleet::PopulationModel model(sim, pop, 23);
  std::uint64_t arrivals = kFnvBasis;
  model.set_session_callback([&](const fleet::SessionSpec& s) {
    arrivals = fnv1a_word(fnv1a_word(arrivals, s.id), static_cast<std::uint64_t>(s.arrival));
  });
  model.start();
  sim.run_until(seconds(60));
  model.stop();
  EXPECT_EQ(Row{}.u(model.generated()).x(arrivals).str(), "876 689b0ad70a8c0ff1");

  const fluid::ValidationRow row = fluid::run_validation_level(50, seconds(10), 11);
  EXPECT_EQ(render(row.packet),
            "validate/u50 50 50 0 0 5152 5106 0 0x1.4aa7627f85177p+5 0x1.5097ca2120e1fp+4 "
            "0x1.ff49f2778140ep+5 0x1.f1bdda8bd230cp+4 0x1.ecb8d3f1843c4p+5 0x1.fb7a719b4dcecp+5 "
            "0x0p+0 0x1.fe9999999999ap+8 2 18727 0x1.4p+3");
  EXPECT_EQ(render(row.fluid),
            "validate/u50/fluid 50 50 0 0 5523 0 0x1.f7b9ba21db8bfp+4 0x1.35bffa279e821p+4 "
            "0x1.d5b6d38a4adb5p+5 0x1.a59999999999ap+4 0x1.c39999999999ap+5 0x1.d2ccccccccccdp+5 "
            "0x0p+0 0x1.142586b2b9b64p+9 0x1.f9b24a5ace442p+4 0x1.f9b24a5ace442p+4 -1 0x0p+0 1000 "
            "0x1.4p+3 96 989f366896929d57");
  EXPECT_EQ(Row{}.d(row.users).d(row.p99_delta_pct).d(row.goodput_delta_pct).str(),
            "0x1.9p+5 0x1.00813152e349fp+3 0x1.054bfc1dbfd2bp+3");
}

}  // namespace
}  // namespace arnet
