// Heap-allocation work gate for the fleet frame path. This binary replaces
// the global operator new/delete with counting versions and runs two
// capacity cells (the u100 batched cell and the u200 unbatched overload
// cell of the scale_fleet sweep), each dark and with the full telemetry
// bundle a `--slo yes` sweep attaches. An allocation count, unlike a wall
// time, is exact on any host: one stray std::string or container per frame
// moves the ratio by 1.0, far past the bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "arnet/fleet/scenario.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/trace.hpp"

namespace {

// Plain counter: the simulations below are single-threaded, and gtest does
// not allocate from other threads while a test body runs.
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace arnet {
namespace {

/// Allocations per captured frame allowed on the fleet frame path. The
/// frame path itself allocates nothing; what remains is set-up, session
/// bookkeeping and the sampler's retained frames, amortized over the run.
/// The largest of the four runs measures 0.153 (u200, full telemetry); the
/// bound leaves a ~0.05 margin for other standard-library builds.
constexpr double kMaxAllocationsPerFrame = 0.2;

fleet::CellConfig sweep_cell(const char* name, double users, bool batched) {
  fleet::CellConfig c;
  c.name = name;
  c.offered_users = users;
  c.policy = fleet::BalancerPolicy::kLeastOutstanding;
  c.batched = batched;
  c.duration = sim::seconds(30);
  return c;
}

struct Measured {
  double per_frame = 0.0;
  std::int64_t frames = 0;
};

/// Run one cell at seed 7, counting every heap allocation from world build
/// to summary; `full` attaches the bundle scale_fleet's --slo attaches.
Measured measure(const fleet::CellConfig& cell, bool full) {
  obs::MetricsRegistry metrics;
  trace::Tracer tracer;
  tracer.set_sink_only(true);
  trace::SamplerConfig sc;
  sc.seed = runner::derive_seed(7, 0x5A3917);
  trace::TailSampler sampler(sc);
  slo::SloConfig lc;
  lc.entity = cell.name;
  slo::SloTracker slo(lc);
  trace::Telemetry t;
  if (full) t = {.metrics = &metrics, .tracer = &tracer, .sampler = &sampler, .slo = &slo};

  const std::uint64_t before = g_allocations;
  const fleet::CellResult r = fleet::run_capacity_cell(cell, 7, t);
  const std::uint64_t allocations = g_allocations - before;
  return {static_cast<double>(allocations) / static_cast<double>(r.frames), r.frames};
}

void expect_within_budget(const fleet::CellConfig& cell) {
  for (bool full : {false, true}) {
    const Measured m = measure(cell, full);
    ASSERT_GT(m.frames, 10'000) << cell.name << ": too few frames to amortize set-up";
    EXPECT_LE(m.per_frame, kMaxAllocationsPerFrame)
        << cell.name << (full ? " with full telemetry" : " dark") << ": " << m.per_frame
        << " allocations per captured frame over " << m.frames << " frames";
  }
}

TEST(AllocationBudget, CountingOperatorNewSeesAllocations) {
  static std::string* volatile sink = nullptr;
  const std::uint64_t before = g_allocations;
  sink = new std::string(64, 'x');  // past the small-string buffer: two allocations
  delete sink;
  EXPECT_EQ(g_allocations - before, 2u);
}

TEST(AllocationBudget, BatchedCellFramePath) {
  expect_within_budget(sweep_cell("u100/lo/batch=on/as=off/adm=off", 100.0, true));
}

TEST(AllocationBudget, UnbatchedOverloadFramePath) {
  expect_within_budget(sweep_cell("u200/lo/batch=off/as=off/adm=off", 200.0, false));
}

}  // namespace
}  // namespace arnet
