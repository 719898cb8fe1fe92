// Tests for capacitated placement, k-median refinement, and the mobile
// server-selection / migration study (paper §VI-E/F extensions).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "arnet/edge/mobility.hpp"
#include "arnet/edge/placement.hpp"
#include "arnet/sim/rng.hpp"
#include "golden.hpp"

namespace arnet::edge {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(CapacitatedPlacement, HotspotNeedsMultipleSitesUnderCapacity) {
  // 30 users in one hotspot; one site covers them all latency-wise, but
  // capacity 10 forces three deployments.
  PlacementProblem p;
  p.set_constraint(0, {milliseconds(30)});
  for (int i = 0; i < 4; ++i) {
    p.add_site({{static_cast<double>(i), 0.0}, "dc" + std::to_string(i), 10});
  }
  sim::Rng rng(3);
  for (int u = 0; u < 30; ++u) {
    p.add_user({{rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)}, 0});
  }
  auto uncap = p.solve_greedy();
  auto cap = p.solve_greedy_capacitated();
  EXPECT_EQ(uncap.datacenters(), 1u);
  ASSERT_TRUE(cap.feasible);
  EXPECT_EQ(cap.datacenters(), 3u);
  // No site exceeds its capacity.
  std::map<int, int> load;
  for (int a : cap.assignment) {
    if (a >= 0) ++load[a];
  }
  for (const auto& [site, n] : load) {
    EXPECT_LE(n, 10) << "site " << site;
  }
}

TEST(CapacitatedPlacement, InfeasibleWhenTotalCapacityTooSmall) {
  PlacementProblem p;
  p.set_constraint(0, {milliseconds(30)});
  p.add_site({{0, 0}, "dc", 5});
  for (int u = 0; u < 10; ++u) p.add_user({{0.1 * u, 0}, 0});
  auto sol = p.solve_greedy_capacitated();
  EXPECT_FALSE(sol.feasible);
  int assigned = 0;
  for (int a : sol.assignment) assigned += a >= 0 ? 1 : 0;
  EXPECT_EQ(assigned, 5);
}

TEST(Refinement, ImprovesMeanRttAtFixedCount) {
  // Users cluster in one corner; minimal cover may pick a central site, and
  // the k-median refinement should pull the choice toward the cluster.
  PlacementProblem p;
  p.set_constraint(0, {milliseconds(20)});
  p.add_site({{10, 10}, "center"});
  p.add_site({{2, 2}, "corner"});
  sim::Rng rng(5);
  for (int u = 0; u < 20; ++u) {
    p.add_user({{rng.normal(2.0, 1.0), rng.normal(2.0, 1.0)}, 0});
  }
  PlacementSolution base = p.solution_for({0});  // deliberately suboptimal
  auto refined = p.refine_mean_rtt(base, 8);
  EXPECT_LE(p.mean_assigned_rtt(refined), p.mean_assigned_rtt(base));
  ASSERT_EQ(refined.datacenters(), 1u);
  EXPECT_EQ(refined.chosen_sites[0], 1);  // moved to the corner site
}

TEST(RandomWaypoint, StaysInsideCityAndMoves) {
  RandomWaypoint w(sim::Rng(7), 10.0);
  GeoPoint first = w.position_at(0);
  double max_step_km = 0.0;
  GeoPoint prev = first;
  double total = 0.0;
  for (int i = 1; i <= 600; ++i) {
    GeoPoint pos = w.position_at(seconds(i));
    EXPECT_GE(pos.x_km, 0.0);
    EXPECT_LE(pos.x_km, 10.0);
    EXPECT_GE(pos.y_km, 0.0);
    EXPECT_LE(pos.y_km, 10.0);
    max_step_km = std::max(max_step_km, distance_km(prev, pos));
    total += distance_km(prev, pos);
    prev = pos;
  }
  EXPECT_GT(total, 0.5);                 // actually moved
  EXPECT_LT(max_step_km, 40.0 / 3600 + 0.02);  // never faster than max speed
}

TEST(MigrationStudy, DenserDeploymentLowersRttButRaisesMigrations) {
  std::vector<CandidateSite> sites;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      sites.push_back({{5.0 * i + 2.5, 5.0 * j + 2.5}, "dc"});
    }
  }
  MigrationStudy::Config cfg;
  cfg.duration = seconds(3600);
  cfg.max_rtt = milliseconds(20);

  std::vector<int> sparse = {5};                 // one central DC
  std::vector<int> dense;
  for (int i = 0; i < 16; ++i) dense.push_back(i);

  auto r_sparse = MigrationStudy::run(sites, sparse, 20, 11, cfg);
  auto r_dense = MigrationStudy::run(sites, dense, 20, 11, cfg);

  EXPECT_LT(r_dense.rtt_ms.median(), r_sparse.rtt_ms.median());
  EXPECT_EQ(r_sparse.migrations, 0);  // nowhere else to go
  EXPECT_GT(r_dense.migrations, 50);  // handoffs as users roam
  EXPECT_GT(r_dense.migrations_per_user_hour, 1.0);
}

TEST(MigrationStudy, TightConstraintCreatesDeadZones) {
  std::vector<CandidateSite> sites = {{{10, 10}, "dc"}};
  MigrationStudy::Config cfg;
  cfg.duration = seconds(1800);
  cfg.max_rtt = sim::from_milliseconds(4.8);  // ~5 km radius in a 20 km city
  auto r = MigrationStudy::run(sites, {0}, 15, 13, cfg);
  EXPECT_GT(r.out_of_constraint_fraction, 0.3);
  EXPECT_LT(r.out_of_constraint_fraction, 0.95);
}

TEST(MigrationStudy, MigrationDowntimeFollowsStateSize) {
  std::vector<CandidateSite> sites = {{{0, 0}, "a"}, {{20, 0}, "b"}};
  MigrationStudy::Config small;
  small.session_state_bytes = 1'000'000;
  MigrationStudy::Config big;
  big.session_state_bytes = 50'000'000;
  auto rs = MigrationStudy::run(sites, {0, 1}, 5, 3, small);
  auto rb = MigrationStudy::run(sites, {0, 1}, 5, 3, big);
  EXPECT_EQ(rb.mean_migration_downtime, 50 * rs.mean_migration_downtime);
}

namespace {

/// Every Result field of one migration study: the RTT samples as a count and
/// a digest of their bits in sorted order, then the scalars as hex floats.
std::string render(const MigrationStudy::Result& r) {
  std::uint64_t h = golden::kFnvBasis;
  for (double v : r.rtt_ms.values()) h = golden::fnv1a_word(h, std::bit_cast<std::uint64_t>(v));
  return golden::Row{}
      .u(r.rtt_ms.count())
      .x(h)
      .i(r.migrations)
      .d(r.out_of_constraint_fraction)
      .i(r.mean_migration_downtime)
      .d(r.migrations_per_user_hour)
      .str();
}

}  // namespace

// The migration studies sec6_placement and city_walk run: the sec6_placement
// 4x4 grid over a 36 km city at 6 ms with 1, 4 and 16 chosen sites, and the
// city_walk 3x3 grid over 20 km with the sites its placement step chooses.
// Pins the walkers' streams, the latency model and the state-transfer time.
TEST(MigrationStudy, ResultGoldens) {
  std::vector<std::string> got;
  {
    std::vector<CandidateSite> sites;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        const double step = 36.0 / 5;
        sites.push_back({{step * (i + 1), step * (j + 1)}, "dc"});
      }
    }
    MigrationStudy::Config cfg;
    cfg.max_rtt = sim::from_milliseconds(6.0);
    cfg.city_km = 36.0;
    const std::vector<std::vector<int>> rows = {
        {5}, {0, 3, 12, 15}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}};
    for (const std::vector<int>& chosen : rows) {
      got.push_back(render(MigrationStudy::run(sites, chosen, 25, 3, cfg)));
    }
  }
  {
    PlacementProblem plan;
    plan.set_constraint(0, {milliseconds(6)});
    std::vector<CandidateSite> sites;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        CandidateSite s{{6.0 * i + 4.0, 6.0 * j + 4.0}, "dc" + std::to_string(3 * i + j)};
        sites.push_back(s);
        plan.add_site(s);
      }
    }
    sim::Rng urng(1);
    for (int u = 0; u < 30; ++u) {
      plan.add_user({{urng.uniform(0.0, 20.0), urng.uniform(0.0, 20.0)}, 0});
    }
    const PlacementSolution placement = plan.refine_mean_rtt(plan.solve_greedy());
    MigrationStudy::Config cfg;
    cfg.max_rtt = milliseconds(6);
    got.push_back(render(MigrationStudy::run(sites, placement.chosen_sites, 30, 7, cfg)));
  }
  const std::vector<std::string> want = {
      "3934 6a0458ffc90f8108 0 0x1.2032f8f21e7e1p-1 16000000 0x0p+0",
      "8653 c0b28b6114c18897 5 0x1.3bd8dc46164cfp-5 16000000 0x1.999999999999ap-2",
      "9000 9220d280578c2a3f 24 0x0p+0 16000000 0x1.eb851eb851eb8p+0",
      "10784 587b618883e41fc2 0 0x1.845c8a0ce5129p-10 16000000 0x0p+0",
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

}  // namespace
}  // namespace arnet::edge
