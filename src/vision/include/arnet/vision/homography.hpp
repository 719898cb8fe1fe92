#pragma once

#include <optional>
#include <vector>

#include "arnet/sim/rng.hpp"
#include "arnet/vision/geometry.hpp"

namespace arnet::vision {

/// One 2D point correspondence src -> dst.
struct Correspondence {
  Vec2 src;
  Vec2 dst;
};

/// Normalized DLT homography from >= 4 correspondences (Hartley
/// normalization + null space of A^T A via Jacobi). Returns nullopt for
/// degenerate configurations.
std::optional<Mat3> estimate_homography_dlt(const std::vector<Correspondence>& pts);

struct RansacResult {
  Mat3 h;
  std::vector<int> inliers;  ///< indices into the correspondence list
  int iterations = 0;
};

struct RansacParams {
  int max_iterations = 500;
  int min_inliers = 8;
  double confidence = 0.995;  ///< early exit once this is reached
};

/// RANSAC's consensus test: replace `out` with the indices of the
/// correspondences that `h` maps strictly within `threshold_px` (Euclidean)
/// of their destination. NaN or infinite residuals are never inliers.
void homography_inliers(const Mat3& h, const std::vector<Correspondence>& pts,
                        double threshold_px, std::vector<int>& out);

/// Robust homography estimation (4-point RANSAC, refined on the consensus
/// set). This is the "homography" step of the paper's MAR browser model.
std::optional<RansacResult> estimate_homography_ransac(
    const std::vector<Correspondence>& pts, sim::Rng& rng, const RansacParams& params = {});

}  // namespace arnet::vision
