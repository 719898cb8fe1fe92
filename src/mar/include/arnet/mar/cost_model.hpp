#pragma once

#include <cstdint>

#include "arnet/mar/device.hpp"
#include "arnet/sim/time.hpp"
#include "arnet/vision/features.hpp"

namespace arnet::mar {

/// delta_a of the MAR application every serving layer runs: the 75 ms
/// motion-to-photon budget a frame's result must meet.
inline constexpr sim::Time kFrameDeadline = sim::milliseconds(75);

/// The CloudRidAR frame, stage by stage: each stage's desktop-reference cost
/// (scaled by DeviceProfile::compute_scale where it runs) and the payloads it
/// moves. The cost model's default app, OffloadSession and fleet::kApp read
/// this one table. Where they disagree on a stage, each keeps its own value
/// under its own name here, so picking one is a visible, deliberate change.
namespace cloudridar {

/// FAST + BRIEF feature extraction: OffloadSession's device stage, and the
/// surrogate's first stage under FullOffload.
inline constexpr sim::Time kExtract = sim::milliseconds(4);
/// fleet::kApp's device stage: a light extract/encode assist, so even a
/// 40x-slower smart-glasses client (Table I) stays inside the deadline on an
/// unloaded edge. Disagrees with kExtract.
inline constexpr sim::Time kFleetExtract = sim::milliseconds(1);
/// Match + RANSAC against a small database on the surrogate (the session's
/// and the fleet's server stage).
inline constexpr sim::Time kRecognize = sim::milliseconds(3);
/// Patch tracking of a Glimpse frame between two offloaded triggers.
inline constexpr sim::Time kTrack = sim::milliseconds(1);
/// Decoding one compressed frame (FullOffload, on each end).
inline constexpr sim::Time kDecodeFrame = sim::milliseconds(1);
/// p(a) of the cost model's default app: the whole frame's vision work on
/// one device. Disagrees with kExtract + kRecognize.
inline constexpr sim::Time kCostModelWork = sim::milliseconds(4);

/// Serialized features uploaded per frame (session and fleet).
inline constexpr std::int64_t kFeatureBytes = vision::kFeatureUploadBytes;
/// The cost model's default uplink payload at split_y = 0. Disagrees with
/// kFeatureBytes.
inline constexpr std::int64_t kCostModelUploadBytes = 30'000;
/// The recognition result returned per frame (every reader).
inline constexpr std::int64_t kResultBytes = vision::kRecognitionResultBytes;

}  // namespace cloudridar

/// The paper's §III-B application parameters: an application `a` generates
/// f(a) frames per second, each needing p(a) units of processing, and must
/// finish each frame within delta_a.
struct AppParams {
  double fps = 30.0;                                       ///< f(a)
  sim::Time work_per_frame = cloudridar::kCostModelWork;   ///< p(a), desktop-reference
  sim::Time deadline = kFrameDeadline;  ///< delta_a (round-trip budget)
  std::int64_t upload_bytes_per_frame = cloudridar::kCostModelUploadBytes;
  std::int64_t result_bytes = cloudridar::kResultBytes;  ///< computation result downlink
};

/// Link n_mc between the mobile and the cloud surrogate.
struct LinkParams {
  double bandwidth_bps = 10e6;  ///< b_mc
  sim::Time latency = sim::milliseconds(20);  ///< l_mc (one way)
};

/// One offloaded frame's path: device compute before the upload, bytes
/// uploaded, surrogate compute, and bytes returned.
struct FrameStages {
  sim::Time device = 0;
  std::int64_t upload_bytes = 0;
  sim::Time surrogate = 0;
  std::int64_t result_bytes = 0;
};

/// The one analytic latency of an offloaded frame: local compute + upload +
/// a round trip + surrogate compute + download. A link without rate never
/// delivers (each transfer costs sim::kNever / 4).
sim::Time offload_latency(const FrameStages& stages, const LinkParams& link);

/// P_local(R_m, f, p): per-frame execution time fully on the device.
sim::Time p_local(const DeviceProfile& device, const AppParams& app);

/// P_offloading(R_m, R_c, ...): split execution. `split_y` is the fraction
/// of per-frame work kept on the device (y); the remainder runs on the
/// surrogate after uploading the payload.
sim::Time p_offloading(const DeviceProfile& device, const DeviceProfile& surrogate,
                       const AppParams& app, const LinkParams& link, double split_y);

/// Equation (1): does the configuration meet the frame deadline?
inline bool meets_deadline(sim::Time execution, const AppParams& app) {
  return execution < app.deadline;
}

}  // namespace arnet::mar
