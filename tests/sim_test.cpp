#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arnet/check/assert.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/sim/simulator.hpp"
#include "arnet/sim/stats.hpp"
#include "arnet/sim/time.hpp"

namespace arnet::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(75)), 75.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_EQ(from_milliseconds(1.5), 1'500'000);
}

TEST(Time, TransmissionDelay) {
  // 1500 bytes at 12 Mb/s = 1 ms.
  EXPECT_EQ(transmission_delay(1500, 12e6), milliseconds(1));
  // 1 byte at 8 bps = 1 s.
  EXPECT_EQ(transmission_delay(1, 8.0), seconds(1));
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(milliseconds(30), [&] { order.push_back(3); });
  sim.at(milliseconds(10), [&] { order.push_back(1); });
  sim.at(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(milliseconds(5), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  Time fired = -1;
  sim.at(milliseconds(10), [&] {
    sim.after(milliseconds(5), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, milliseconds(15));
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(milliseconds(10), [&] { ++fired; });
  sim.at(milliseconds(50), [&] { ++fired; });
  sim.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(20));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto h = sim.at(milliseconds(10), [&] { ran = true; });
  sim.cancel(h);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  bool ran = false;
  auto h = sim.at(milliseconds(10), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  sim.cancel(h);  // must not crash or corrupt state
  sim.after(milliseconds(1), [] {});
  sim.run();
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.at(milliseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(milliseconds(5), [] {}), std::invalid_argument);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.after(microseconds(1), chain);
  };
  sim.after(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
}

TEST(Timer, ArmFiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(milliseconds(10));
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPending) {
  Simulator sim;
  Time fired_at = -1;
  Timer t(sim, [&] { fired_at = sim.now(); });
  t.arm(milliseconds(10));
  t.arm(milliseconds(30));
  sim.run();
  EXPECT_EQ(fired_at, milliseconds(30));
}

TEST(Timer, StopCancels) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(milliseconds(10));
  t.stop();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(42);
  Rng a = parent.fork("link-a");
  Rng b = parent.fork("link-b");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    auto n = rng.uniform_int(-5, 5);
    EXPECT_GE(n, -5);
    EXPECT_LE(n, 5);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  double s = 0.0;
  for (int i = 0; i < 20000; ++i) s += rng.exponential(5.0);
  EXPECT_NEAR(s / 20000.0, 5.0, 0.25);
}

TEST(Rng, NormalAtLeastClamps) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.normal_at_least(0.0, 10.0, 0.5), 0.5);
}

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Stats, EmptySamplesAreZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

TEST(Stats, FrameLedgerScoresEachCompletionOnce) {
  FrameLedger l;
  l.frames = 4;
  EXPECT_FALSE(l.complete(milliseconds(10), milliseconds(75)));
  EXPECT_FALSE(l.complete(milliseconds(75), milliseconds(75)));  // on the deadline is on time
  EXPECT_TRUE(l.complete(milliseconds(90), milliseconds(75)));
  EXPECT_EQ(l.results, 3);
  EXPECT_EQ(l.deadline_misses, 1);
  EXPECT_DOUBLE_EQ(l.miss_rate(), 1.0 / 3.0);
  EXPECT_TRUE(l.consistent());
  const LatencySummary s = l.summary();
  EXPECT_DOUBLE_EQ(s.min_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 75.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 90.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 175.0 / 3.0);
}

// A ledger that completed more frames than it captured breaks conservation,
// and the check every frame-counting run ends with reports it through the
// check-failure hook.
TEST(Stats, LedgerWithMoreResultsThanFramesTripsTheCheck) {
  FrameLedger l;
  l.frames = 1;
  l.complete(milliseconds(10), milliseconds(75));
  EXPECT_TRUE(l.consistent());
  l.complete(milliseconds(20), milliseconds(75));
  EXPECT_FALSE(l.consistent());

  std::string diagnostic;
  auto prev = check::set_failure_hook([&](const std::string& d) { diagnostic = d; });
  {
    check::ScopedFailPolicy policy(check::FailPolicy::kCountAndLog);
    check::reset_failures();
    ARNET_CHECK(l.consistent(), "ledger: ", l.frames, " frames, ", l.results, " results");
    EXPECT_EQ(check::failure_count(), 1u);
    check::reset_failures();
  }
  check::set_failure_hook(std::move(prev));
  EXPECT_NE(diagnostic.find("1 frames, 2 results"), std::string::npos) << diagnostic;
}

TEST(Stats, TimeSeriesWindowMean) {
  TimeSeries ts;
  ts.add(seconds(1), 10.0);
  ts.add(seconds(2), 20.0);
  ts.add(seconds(3), 30.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(seconds(1), seconds(3)), 15.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(seconds(0), seconds(10)), 20.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(seconds(5), seconds(10)), 0.0);
}

TEST(Stats, RateMeterComputesMbps) {
  RateMeter m;
  m.on_bytes(125'000);  // 1 Mb
  m.sample(seconds(1));
  EXPECT_NEAR(m.series().points().back().second, 1.0, 1e-9);
  m.on_bytes(250'000);  // 2 Mb in next second
  m.sample(seconds(2));
  EXPECT_NEAR(m.series().points().back().second, 2.0, 1e-9);
  EXPECT_NEAR(m.average_mbps(seconds(2)), 1.5, 1e-9);
}

// ---- Slab engine stress: slot recycling and generation safety. -----------

TEST(SimulatorSlab, ChurnRecyclesSlotsWithoutGrowth) {
  // Schedule/cancel/fire far more events than the slab has slots; freed
  // slots must recycle, so the slab stays near the peak live count instead
  // of growing with total event count.
  Simulator sim;
  Rng rng(42);
  // Deliberately keep handles to already-fired events around: cancelling a
  // stale handle must be a no-op, and the accounting below only counts a
  // cancel when the event had not fired yet.
  std::vector<std::pair<EventHandle, std::size_t>> handles;
  std::vector<bool> fired_flags;
  std::uint64_t fired = 0, scheduled = 0, cancelled = 0;
  constexpr int kRounds = 20'000;
  for (int i = 0; i < kRounds; ++i) {
    double coin = rng.uniform(0.0, 1.0);
    if (coin < 0.5 || handles.empty()) {
      std::size_t k = fired_flags.size();
      fired_flags.push_back(false);
      handles.emplace_back(sim.after(1 + static_cast<Time>(rng.uniform(0, 1000)),
                                     [&fired, &fired_flags, k] {
                                       ++fired;
                                       fired_flags[k] = true;
                                     }),
                           k);
      ++scheduled;
    } else if (coin < 0.75) {
      auto idx = static_cast<std::size_t>(rng.uniform(0, static_cast<double>(handles.size())));
      std::swap(handles[idx], handles.back());
      auto [h, k] = handles.back();
      if (!fired_flags[k]) ++cancelled;  // else: stale handle, cancel is a no-op
      sim.cancel(h);
      handles.pop_back();
    } else {
      sim.run_for(static_cast<Time>(rng.uniform(0, 200)));
    }
  }
  sim.run();
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_EQ(sim.events_executed(), fired);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancel_backlog(), 0u);
  // Peak concurrency is bounded by the number of rounds between drains; the
  // slab must be far below the 20k total events scheduled.
  EXPECT_LT(SimulatorTestPeer::slab_size(sim), 4096u);
}

TEST(SimulatorSlab, ChurnPreservesTimeThenFifoOrder) {
  // Recycled slots must not disturb (time, seq) ordering: interleave fresh
  // and recycled slots at equal and distinct times and replay the order.
  Simulator sim;
  std::vector<int> order;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      Time t = sim.now() + 10 + (i % 2);  // two event times, 4 events each
      sim.at(t, [&order, round, i] { order.push_back(round * 8 + i); });
    }
    sim.run_for(20);
  }
  sim.run();
  ASSERT_EQ(order.size(), 400u);
  // Within each round: the four even-index (earlier-time) events in FIFO
  // order, then the four odd-index ones.
  for (int round = 0; round < 50; ++round) {
    const int base = round * 8;
    const int expect[] = {0, 2, 4, 6, 1, 3, 5, 7};
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(order[static_cast<std::size_t>(base + k)], base + expect[k]);
    }
  }
}

TEST(SimulatorSlab, StaleHandleAfterReuseIsRejected) {
  Simulator sim;
  bool first_ran = false, second_ran = false;
  auto h1 = sim.at(10, [&] { first_ran = true; });
  sim.run();
  EXPECT_TRUE(first_ran);
  // The fired event's slot is free; the next schedule reuses it with a
  // bumped generation.
  auto h2 = sim.at(20, [&] { second_ran = true; });
  EXPECT_EQ(SimulatorTestPeer::slot_of(h1), SimulatorTestPeer::slot_of(h2));
  EXPECT_NE(SimulatorTestPeer::generation_of(h1), SimulatorTestPeer::generation_of(h2));
  sim.cancel(h1);  // stale: must NOT cancel the new occupant
  sim.run();
  EXPECT_TRUE(second_ran);
}

TEST(SimulatorSlab, GenerationWrapSkipsZeroAndStaysValid) {
  Simulator sim;
  // Recycle one slot so the free list is non-empty, then force its
  // generation to the wrap point.
  auto h0 = sim.at(1, [] {});
  sim.cancel(h0);
  sim.run();
  const std::uint32_t slot = SimulatorTestPeer::slot_of(h0);
  SimulatorTestPeer::set_slot_generation(sim, slot, 0xFFFFFFFFu);

  bool a_ran = false, b_ran = false;
  auto ha = sim.at(10, [&] { a_ran = true; });
  ASSERT_EQ(SimulatorTestPeer::slot_of(ha), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(ha), 0xFFFFFFFFu);
  EXPECT_TRUE(ha.valid());
  sim.run();
  EXPECT_TRUE(a_ran);

  // The release wrapped the generation; it must skip 0 (a packed id of 0 is
  // the null handle) and the max-generation handle must now be stale.
  auto hb = sim.at(20, [&] { b_ran = true; });
  ASSERT_EQ(SimulatorTestPeer::slot_of(hb), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(hb), 1u);
  EXPECT_TRUE(hb.valid());
  sim.cancel(ha);  // wrapped-generation stale handle: no-op
  sim.run();
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancel_backlog(), 0u);
}

TEST(SimulatorSlab, CancelBacklogDiscardedLazily) {
  Simulator sim;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 100; ++i) hs.push_back(sim.at(10 + i, [] {}));
  for (int i = 0; i < 100; i += 2) sim.cancel(hs[static_cast<std::size_t>(i)]);
  EXPECT_EQ(sim.pending_events(), 50u);
  EXPECT_EQ(sim.cancel_backlog(), 50u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancel_backlog(), 0u);
  EXPECT_EQ(sim.events_executed(), 50u);
}

}  // namespace
}  // namespace arnet::sim
