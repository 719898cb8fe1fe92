#pragma once

#include "arnet/mar/device.hpp"
#include "arnet/sim/time.hpp"

namespace arnet::mar {

/// delta_a of the MAR application every serving layer runs: the 75 ms
/// motion-to-photon budget a frame's result must meet.
inline constexpr sim::Time kFrameDeadline = sim::milliseconds(75);

/// The paper's §III-B application parameters: an application `a` generates
/// f(a) frames per second, each needing p(a) units of processing, issues
/// d(a) database requests per second for objects of o(a) bytes, and must
/// finish each frame within delta_a.
struct AppParams {
  double fps = 30.0;                       ///< f(a)
  sim::Time work_per_frame = sim::milliseconds(4);  ///< p(a), desktop-reference
  double db_request_hz = 2.0;              ///< d(a)
  std::int64_t object_bytes = 50'000;      ///< o(a)
  sim::Time deadline = kFrameDeadline;  ///< delta_a (round-trip budget)
  std::int64_t upload_bytes_per_frame = 30'000;  ///< frame/feature payload
  std::int64_t result_bytes = 400;         ///< computation result downlink
};

/// Link n_mc between the mobile and the cloud surrogate.
struct LinkParams {
  double bandwidth_bps = 10e6;  ///< b_mc
  sim::Time latency = sim::milliseconds(20);  ///< l_mc (one way)
};

/// P_local(R_m, f, p): per-frame execution time fully on the device.
sim::Time p_local(const DeviceProfile& device, const AppParams& app);

/// P_local+externalDB: local processing plus remote object fetches; `x` is
/// the fraction of the object set cached locally (paper's x parameter).
sim::Time p_local_external_db(const DeviceProfile& device, const AppParams& app,
                              const LinkParams& link, double cache_fraction_x);

/// P_offloading(R_m, R_c, ...): split execution. `split_y` is the fraction
/// of per-frame work kept on the device (y); the remainder runs on the
/// surrogate after uploading the payload.
sim::Time p_offloading(const DeviceProfile& device, const DeviceProfile& surrogate,
                       const AppParams& app, const LinkParams& link, double cache_fraction_x,
                       double split_y);

/// Equation (1): does the configuration meet the frame deadline?
inline bool meets_deadline(sim::Time execution, const AppParams& app) {
  return execution < app.deadline;
}

/// Smallest per-frame execution time across local / offloaded strategies;
/// the decision rule an adaptive runtime would use.
struct BestStrategy {
  enum class Kind { kLocal, kOffload } kind = Kind::kLocal;
  sim::Time execution = 0;
  double split_y = 1.0;
};
BestStrategy best_strategy(const DeviceProfile& device, const DeviceProfile& surrogate,
                           const AppParams& app, const LinkParams& link,
                           double cache_fraction_x);

}  // namespace arnet::mar
