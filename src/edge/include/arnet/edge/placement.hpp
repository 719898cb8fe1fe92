#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arnet/sim/time.hpp"

namespace arnet::edge {

/// Planar coordinates in kilometres (a metro area).
struct GeoPoint {
  double x_km = 0.0;
  double y_km = 0.0;
};

double distance_km(const GeoPoint& a, const GeoPoint& b);

/// A candidate edge-datacenter location.
struct CandidateSite {
  GeoPoint pos;
  std::string name;
  /// Maximum users a deployed datacenter at this site can serve
  /// (0 = unconstrained).
  int capacity_users = 0;
};

/// A mobile user running application `app` (index into the constraint set).
struct MobileUser {
  GeoPoint pos;
  int app = 0;
};

/// Per-application delay constraint: the P_offloading bound of §VI-F
/// collapsed to a maximum user<->datacenter RTT once the compute terms are
/// fixed.
struct AppConstraint {
  sim::Time max_rtt = sim::milliseconds(20);
};

/// Distance -> RTT model: wireless access base cost plus metro routing.
struct LatencyModel {
  sim::Time access_rtt = sim::milliseconds(4);       ///< radio + first hop
  sim::Time rtt_per_km = sim::microseconds(150);     ///< metro fiber detours
  sim::Time rtt(const GeoPoint& user, const GeoPoint& site) const {
    return access_rtt +
           static_cast<sim::Time>(distance_km(user, site) *
                                  static_cast<double>(rtt_per_km));
  }
};

struct PlacementSolution {
  std::vector<int> chosen_sites;   ///< indices into the candidate list
  std::vector<int> assignment;     ///< user -> chosen site index (-1 = uncovered)
  bool feasible = false;           ///< every user covered
  std::size_t datacenters() const { return chosen_sites.size(); }
};

/// The §VI-F problem: minimize |C| subject to every user's app meeting its
/// delay constraint from some chosen datacenter. This is minimum set cover
/// (NP-hard), so the library ships the standard greedy (ln n approximation)
/// plus an exact branch-over-subset-size solver for small instances.
class PlacementProblem {
 public:
  int add_site(CandidateSite site);
  int add_user(MobileUser user);
  void set_constraint(int app, AppConstraint c) { constraints_[app] = c; }

  std::size_t sites() const { return sites_.size(); }
  std::size_t users() const { return users_.size(); }
  const LatencyModel& latency_model() const { return latency_; }

  /// Can site `s` serve user `u` within the constraint?
  bool covers(int s, int u) const;

  PlacementSolution solve_greedy() const;

  /// Exhaustive search over subset sizes 1..sites(); exponential — intended
  /// for <= ~20 candidate sites to validate the greedy's quality.
  PlacementSolution solve_exact() const;

  /// Greedy that respects per-site `capacity_users`: a site only covers as
  /// many users as its remaining capacity, so dense hotspots need several
  /// datacenters even when one would meet every delay constraint.
  PlacementSolution solve_greedy_capacitated() const;

  /// Local-search refinement at fixed |C| (k-median flavor): swap chosen
  /// sites for unchosen ones while the mean assigned RTT improves. Keeps
  /// feasibility; returns the improved solution.
  PlacementSolution refine_mean_rtt(const PlacementSolution& base,
                                    int max_swaps = 64) const;

  /// Build the nearest-feasible assignment for an explicit site choice.
  PlacementSolution solution_for(const std::vector<int>& chosen) const {
    return assemble(chosen);
  }

  /// Mean/max RTT of an assignment (reporting helpers).
  sim::Time max_assigned_rtt(const PlacementSolution& sol) const;
  sim::Time mean_assigned_rtt(const PlacementSolution& sol) const;

 private:
  PlacementSolution assemble(const std::vector<int>& chosen) const;

  std::vector<CandidateSite> sites_;
  std::vector<MobileUser> users_;
  std::map<int, AppConstraint> constraints_;
  LatencyModel latency_;
};

/// n-way inter-server synchronization bound (§VI-E): the state convergence
/// period across the chosen datacenters is governed by the slowest pairwise
/// link; `inter_dc_factor` models firewalls/policies on the interconnect.
sim::Time nway_sync_period(const std::vector<CandidateSite>& sites,
                           const std::vector<int>& chosen, const LatencyModel& model,
                           double inter_dc_factor = 1.5);

}  // namespace arnet::edge
