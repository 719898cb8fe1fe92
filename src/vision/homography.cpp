#include "arnet/vision/homography.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace arnet::vision {

namespace {

/// Hartley normalization: translate centroid to origin, scale mean distance
/// to sqrt(2). Returns the similarity transform.
Mat3 normalizing_transform(const std::vector<Correspondence>& pts, bool use_dst) {
  double cx = 0, cy = 0;
  for (const auto& c : pts) {
    const Vec2& p = use_dst ? c.dst : c.src;
    cx += p.x;
    cy += p.y;
  }
  cx /= static_cast<double>(pts.size());
  cy /= static_cast<double>(pts.size());
  double mean_dist = 0;
  for (const auto& c : pts) {
    const Vec2& p = use_dst ? c.dst : c.src;
    mean_dist += std::hypot(p.x - cx, p.y - cy);
  }
  mean_dist /= static_cast<double>(pts.size());
  double s = mean_dist > 1e-9 ? std::sqrt(2.0) / mean_dist : 1.0;
  Mat3 t;
  t.m = {s, 0, -s * cx, 0, s, -s * cy, 0, 0, 1};
  return t;
}

/// Direct homography from exactly 4 correspondences: with h22 pinned to 1
/// the DLT constraints become an 8x8 linear system, solved here by Gaussian
/// elimination with partial pivoting. Orders of magnitude cheaper than the
/// general path (which builds A^T A and runs a 9x9 Jacobi eigensolve per
/// RANSAC iteration — the dominant cost of recognizing a frame against
/// non-matching database objects, where RANSAC always runs to its iteration
/// cap). Points are Hartley-normalized first so the pivots are well scaled.
/// Degenerate samples (collinear points) hit a ~zero pivot and return
/// nullopt, which RANSAC treats exactly like a failed DLT: skip the
/// iteration.
std::optional<Mat3> homography_from_quad(const Correspondence* c) {
  // Normalize both point sets (centroid to origin, mean distance sqrt(2)).
  double scx = 0, scy = 0, dcx = 0, dcy = 0;
  for (int i = 0; i < 4; ++i) {
    scx += c[i].src.x;
    scy += c[i].src.y;
    dcx += c[i].dst.x;
    dcy += c[i].dst.y;
  }
  scx /= 4;
  scy /= 4;
  dcx /= 4;
  dcy /= 4;
  double sd = 0, dd = 0;
  for (int i = 0; i < 4; ++i) {
    sd += std::hypot(c[i].src.x - scx, c[i].src.y - scy);
    dd += std::hypot(c[i].dst.x - dcx, c[i].dst.y - dcy);
  }
  sd /= 4;
  dd /= 4;
  const double ss = sd > 1e-9 ? std::sqrt(2.0) / sd : 1.0;
  const double ds = dd > 1e-9 ? std::sqrt(2.0) / dd : 1.0;

  // Augmented 8x9 system over the normalized points.
  double a[8][9];
  for (int i = 0; i < 4; ++i) {
    const double x = ss * (c[i].src.x - scx), y = ss * (c[i].src.y - scy);
    const double u = ds * (c[i].dst.x - dcx), v = ds * (c[i].dst.y - dcy);
    double* r0 = a[2 * i];
    double* r1 = a[2 * i + 1];
    r0[0] = x;
    r0[1] = y;
    r0[2] = 1;
    r0[3] = 0;
    r0[4] = 0;
    r0[5] = 0;
    r0[6] = -u * x;
    r0[7] = -u * y;
    r0[8] = u;
    r1[0] = 0;
    r1[1] = 0;
    r1[2] = 0;
    r1[3] = x;
    r1[4] = y;
    r1[5] = 1;
    r1[6] = -v * x;
    r1[7] = -v * y;
    r1[8] = v;
  }
  for (int col = 0; col < 8; ++col) {
    int pivot = col;
    for (int row = col + 1; row < 8; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return std::nullopt;
    if (pivot != col) {
      for (int k = col; k < 9; ++k) std::swap(a[pivot][k], a[col][k]);
    }
    const double inv = 1.0 / a[col][col];
    for (int row = col + 1; row < 8; ++row) {
      const double f = a[row][col] * inv;
      if (f == 0.0) continue;
      for (int k = col; k < 9; ++k) a[row][k] -= f * a[col][k];
    }
  }
  double hn[8];
  for (int row = 7; row >= 0; --row) {
    double v = a[row][8];
    for (int k = row + 1; k < 8; ++k) v -= a[row][k] * hn[k];
    hn[row] = v / a[row][row];
  }

  Mat3 hmat;
  hmat.m = {hn[0], hn[1], hn[2], hn[3], hn[4], hn[5], hn[6], hn[7], 1.0};
  // Denormalize: H = Td^-1 * Hn * Ts.
  Mat3 ts;
  ts.m = {ss, 0, -ss * scx, 0, ss, -ss * scy, 0, 0, 1};
  Mat3 td_inv;
  td_inv.m = {1.0 / ds, 0, dcx, 0, 1.0 / ds, dcy, 0, 0, 1};
  Mat3 result = td_inv * hmat * ts;
  if (std::abs(result.determinant()) < 1e-12) return std::nullopt;
  if (std::abs(result.m[8]) < 1e-12) return std::nullopt;
  return result.normalized();
}

}  // namespace

std::optional<Mat3> estimate_homography_dlt(const std::vector<Correspondence>& pts) {
  if (pts.size() < 4) return std::nullopt;
  Mat3 ts = normalizing_transform(pts, false);
  Mat3 td = normalizing_transform(pts, true);

  // Accumulate A^T A for the 2n x 9 DLT system directly (9x9 symmetric).
  std::array<std::array<double, 9>, 9> ata{};
  auto accumulate = [&ata](const std::array<double, 9>& row) {
    for (int i = 0; i < 9; ++i) {
      if (row[static_cast<std::size_t>(i)] == 0.0) continue;
      for (int j = 0; j < 9; ++j) {
        ata[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            row[static_cast<std::size_t>(i)] * row[static_cast<std::size_t>(j)];
      }
    }
  };
  for (const auto& c : pts) {
    Vec2 p = ts.apply(c.src);
    Vec2 q = td.apply(c.dst);
    accumulate({-p.x, -p.y, -1, 0, 0, 0, q.x * p.x, q.x * p.y, q.x});
    accumulate({0, 0, 0, -p.x, -p.y, -1, q.y * p.x, q.y * p.y, q.y});
  }

  std::array<double, 9> h = smallest_eigenvector<9>(ata);
  double norm = 0;
  for (double v : h) norm += v * v;
  if (norm < 1e-18) return std::nullopt;

  Mat3 hn;
  hn.m = h;
  if (std::abs(hn.determinant()) < 1e-12) return std::nullopt;
  Mat3 result = td.inverse() * hn * ts;
  if (std::abs(result.m[8]) < 1e-12) return std::nullopt;
  return result.normalized();
}

void homography_inliers(const Mat3& h, const std::vector<Correspondence>& pts,
                        double threshold_px, std::vector<int>& out) {
  out.clear();
  // A band around thr² outside which s = dx² + dy² decides `hypot < thr`.
  // s is three roundings (relative error ~2e-16) off the true squared
  // distance, so s below the band puts the true distance under
  // thr·(1 − 5e-10) and s above it over thr·(1 + 5e-10), and a hypot within
  // 1e-10 of the truth lands on the same side of thr. That needs thr²
  // normal (an underflowed s is then off by far less than the band) and
  // 2·thr² finite (the box test bounds s by it); for other thresholds the
  // bounds can never hold and hypot decides every point.
  const double thr2 = threshold_px * threshold_px;
  const bool band = thr2 >= std::numeric_limits<double>::min() && thr2 <= 0x1p1000;
  const double accept_below = band ? thr2 * (1 - 1e-9) : -1.0;
  const double reject_above = band ? thr2 * (1 + 1e-9) : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec2 mapped = h.apply(pts[i].src);
    const double dx = mapped.x - pts[i].dst.x;
    const double dy = mapped.y - pts[i].dst.y;
    // hypot(dx, dy) >= max(|dx|, |dy|) under faithful rounding, so a point
    // failing this box test fails `hypot < threshold` too; most of RANSAC's
    // hypotheses are wrong and reject nearly every point here. The negated
    // `<` also rejects NaN residuals, as the hypot comparison does.
    if (!(std::abs(dx) < threshold_px && std::abs(dy) < threshold_px)) continue;
    const double s = dx * dx + dy * dy;
    if (s > reject_above) continue;
    if (s < accept_below || std::hypot(dx, dy) < threshold_px) {
      out.push_back(static_cast<int>(i));
    }
  }
}

std::optional<RansacResult> estimate_homography_ransac(const std::vector<Correspondence>& pts,
                                                       sim::Rng& rng,
                                                       const RansacParams& params) {
  const int n = static_cast<int>(pts.size());
  if (n < 4) return std::nullopt;

  std::vector<int> best_inliers;
  std::vector<int> inliers;  // hoisted: reused (and swapped) across iterations
  int iterations_needed = params.max_iterations;
  int it = 0;
  for (; it < iterations_needed && it < params.max_iterations; ++it) {
    // Sample 4 distinct indices.
    int idx[4];
    for (int k = 0; k < 4; ++k) {
      bool dup = true;
      while (dup) {
        idx[k] = static_cast<int>(rng.uniform_int(0, n - 1));
        dup = false;
        for (int j = 0; j < k; ++j) dup |= idx[j] == idx[k];
      }
    }
    const Correspondence sample[4] = {pts[static_cast<std::size_t>(idx[0])],
                                      pts[static_cast<std::size_t>(idx[1])],
                                      pts[static_cast<std::size_t>(idx[2])],
                                      pts[static_cast<std::size_t>(idx[3])]};
    auto h = homography_from_quad(sample);
    if (!h) continue;

    homography_inliers(*h, pts, params.inlier_threshold_px, inliers);
    if (inliers.size() > best_inliers.size()) {
      std::swap(best_inliers, inliers);
      // Adaptive iteration count from the inlier ratio.
      double w = static_cast<double>(best_inliers.size()) / n;
      double p_outlier_sample = 1.0 - w * w * w * w;
      if (p_outlier_sample < 1e-9) {
        iterations_needed = it + 1;
      } else {
        double needed =
            std::log(1.0 - params.confidence) / std::log(p_outlier_sample);
        iterations_needed = std::min(params.max_iterations,
                                     static_cast<int>(std::ceil(needed)));
      }
    }
  }

  if (static_cast<int>(best_inliers.size()) < params.min_inliers) return std::nullopt;

  // Refine on the full consensus set.
  std::vector<Correspondence> consensus;
  consensus.reserve(best_inliers.size());
  for (int i : best_inliers) consensus.push_back(pts[static_cast<std::size_t>(i)]);
  auto refined = estimate_homography_dlt(consensus);
  if (!refined) return std::nullopt;

  RansacResult r;
  r.h = *refined;
  r.inliers = std::move(best_inliers);
  r.iterations = it;
  return r;
}

}  // namespace arnet::vision
