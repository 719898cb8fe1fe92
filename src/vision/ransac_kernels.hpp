// RANSAC hypothesis kernels behind estimate_homography_ransac
// (homography.cpp): the 4-point solve, eight hypotheses at a time, and the
// consensus scan. Not part of the public include tree: the tests run every
// kernel the host can run through this header, not only the one the process
// selected.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "arnet/vision/geometry.hpp"
#include "arnet/vision/homography.hpp"

namespace arnet::vision::detail {

/// Hypotheses per batch. Every kernel's lane count divides it.
inline constexpr int kRansacBatch = 8;

/// Room a consensus scan may write past its last index.
inline constexpr int kInlierSlack = 16;

/// The four correspondences of each hypothesis in a batch, one plane per
/// coordinate: src.x, src.y, dst.x, dst.y of correspondence i of hypothesis
/// l at [0][i][l], [1][i][l], [2][i][l] and [3][i][l].
struct QuadBatch {
  double q[4][4][kRansacBatch];
};

/// One homography per hypothesis: entry e (row-major) of hypothesis l at
/// h[e][l].
struct HomographyBatch {
  double h[9][kRansacBatch];

  Mat3 lane(int l) const {
    Mat3 m;
    for (int e = 0; e < 9; ++e) m.m[static_cast<std::size_t>(e)] = h[e][l];
    return m;
  }
};

/// The correspondences as four planes (src.x, src.y, dst.x, dst.y), each
/// `padded` long: n values, then zeros up to a multiple of kRansacBatch.
struct PointPlanes {
  std::size_t n = 0;
  std::size_t padded = 0;
  std::vector<double> v;

  void assign(const std::vector<Correspondence>& pts);
  const double* plane(int c) const { return v.data() + static_cast<std::size_t>(c) * padded; }
};

/// homography_inliers' decision for one threshold: a residual (dx, dy) is
/// an inlier when hypot(dx, dy) < thr. The box test |dx|, |dy| < thr comes
/// first; past it, s = dx² + dy² decides outside the band
/// [accept_below, reject_above] and hypot inside it.
struct InlierTest {
  double thr;
  double accept_below;
  double reject_above;

  explicit InlierTest(double threshold_px);
};

/// One implementation of the hypothesis path. Every kernel returns the same
/// bits for the same input; they differ only in the instructions used.
struct RansacKernel {
  const char* name;
  /// Can this host run the kernel? Asked at run time (CPUID on x86-64).
  bool (*host_runs)();
  /// The 4-point solve of hypotheses 0 .. lanes-1: bit l of the result is
  /// set when hypothesis l has a homography, written to out.h[.][l]. Both
  /// are what the scalar solve (Gaussian elimination with partial pivoting
  /// over Hartley-normalized points) returns for that hypothesis alone.
  unsigned (*solve)(const QuadBatch& quads, int lanes, HomographyBatch& out);
  /// Writes to `out` the indices, ascending, of the points `h` maps within
  /// the test's threshold of their destination, and returns their count.
  /// `out` has room for pts.padded + kInlierSlack indices: a kernel may
  /// write past the count.
  int (*inliers)(const Mat3& h, const PointPlanes& pts, const InlierTest& test, int* out);
};

/// Every kernel compiled into this build, slowest first. The portable
/// kernel is always first and runs everywhere.
std::span<const RansacKernel> ransac_kernels();

/// The fastest kernel this host runs, chosen once per process.
const RansacKernel& selected_ransac_kernel();

}  // namespace arnet::vision::detail
