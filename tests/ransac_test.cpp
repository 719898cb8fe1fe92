// RANSAC's sample stream and hypothesis path: seeded goldens of what
// estimate_homography_ransac returns and how far it advances the caller's
// RNG, and every hypothesis kernel (src/vision/ransac_kernels.hpp) against
// the scalar solve and scan it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "arnet/sim/rng.hpp"
#include "arnet/vision/geometry.hpp"
#include "arnet/vision/homography.hpp"
#include "golden.hpp"
#include "ransac_kernels.hpp"

namespace arnet::vision {
namespace {

/// `n_in` correspondences mapped exactly by a fixed projective map, then
/// `n_out` with random destinations.
std::vector<Correspondence> mixed_set(std::uint64_t seed, int n_in, int n_out) {
  sim::Rng rng(seed);
  Mat3 truth = Mat3::similarity(0.9, 0.2, 15, -8);
  truth(2, 0) = 2e-4;
  std::vector<Correspondence> pts;
  for (int i = 0; i < n_in + n_out; ++i) {
    const Vec2 p{rng.uniform(0, 320), rng.uniform(0, 240)};
    if (i < n_in) {
      pts.push_back({p, truth.apply(p)});
    } else {
      pts.push_back({p, {rng.uniform(0, 320), rng.uniform(0, 240)}});
    }
  }
  return pts;
}

/// `n_line` correspondences on one line (every sample of them is
/// degenerate), then `n_in` exact ones off it.
std::vector<Correspondence> collinear_set(int n_line, int n_in) {
  std::vector<Correspondence> pts;
  for (int i = 0; i < n_line; ++i) {
    const Vec2 p{10.0 + 7 * i, 20.0 + 3 * i};
    pts.push_back({p, {p.x + 5, p.y - 2}});
  }
  auto rest = mixed_set(7, n_in, 0);
  pts.insert(pts.end(), rest.begin(), rest.end());
  return pts;
}

/// FNV-1a over 64-bit words.
template <typename Range, typename ToWord>
std::uint64_t digest(const Range& values, ToWord to_word) {
  std::uint64_t h = golden::kFnvBasis;
  for (const auto& v : values) h = golden::fnv1a_word(h, to_word(v));
  return h;
}

/// One RANSAC call as a row: its name, then "none" or the inlier count, a
/// digest of the inlier indices, `iterations` and a digest of the bits of
/// `h`; last, the caller's RNG's next draw.
std::string ransac_row(const std::string& name, const std::vector<Correspondence>& pts,
                       std::uint64_t seed, const RansacParams& params) {
  sim::Rng rng(seed);
  const auto r = estimate_homography_ransac(pts, rng, params);
  golden::Row row;
  row.s(name);
  if (!r) {
    row.s("none");
  } else {
    row.u(r->inliers.size())
        .x(digest(r->inliers, [](int i) { return static_cast<std::uint64_t>(i); }))
        .i(r->iterations)
        .x(digest(r->h.m, [](double v) { return std::bit_cast<std::uint64_t>(v); }));
  }
  return row.x(rng.next_u64()).str();
}

// Pins the samples RANSAC draws, and so the order in which it tries them:
// a change that draws a sample it would not have tried, skips one, or stops
// one iteration early or late moves the inliers, `iterations` or the next
// draw. The clean sets stop on the adaptive count at each offset 0-7 of a
// run of eight iterations (iterations - 1 = 24, 17, 10, 11, 12, 13, 14, 15,
// then 0, 82 and 239). The mostly-inlier sets find their consensus in the
// first iterations, and the count it gives (2-7, then 9) stops the loop
// before the first eight are done. n = 4-7 reject most draws as
// duplicates; the collinear sets take the degenerate-solve path.
TEST(Ransac, SampleStreamGolden) {
  RansacParams loose;
  loose.min_inliers = 4;
  const RansacParams defaults;
  std::vector<std::string> got = {
      ransac_row("noise-32-cap", mixed_set(101, 0, 32), 1, loose),
      ransac_row("noise-200-cap", mixed_set(103, 0, 200), 2, loose),
      ransac_row("noise-50-none", mixed_set(107, 0, 50), 3, defaults),
      ransac_row("clean-12-6", mixed_set(11, 12, 6), 4, defaults),
      ransac_row("clean-10-4", mixed_set(12, 10, 4), 5, defaults),
      ransac_row("clean-20-5", mixed_set(13, 20, 5), 6, defaults),
      ransac_row("clean-14-4", mixed_set(14, 14, 4), 7, defaults),
      ransac_row("clean-10-3", mixed_set(15, 10, 3), 8, defaults),
      ransac_row("clean-30-10", mixed_set(16, 30, 10), 9, defaults),
      ransac_row("clean-20-7", mixed_set(17, 20, 7), 10, defaults),
      ransac_row("clean-14-5", mixed_set(18, 14, 5), 11, defaults),
      ransac_row("clean-10-0", mixed_set(19, 10, 0), 12, defaults),
      ransac_row("clean-10-10", mixed_set(20, 10, 10), 13, defaults),
      ransac_row("clean-10-16", mixed_set(21, 10, 16), 14, defaults),
      ransac_row("mid-60-1-s41", mixed_set(41, 60, 1), 141, defaults),
      ransac_row("mid-60-2-s41", mixed_set(41, 60, 2), 141, defaults),
      ransac_row("mid-40-2-s42", mixed_set(42, 40, 2), 142, defaults),
      ransac_row("mid-30-3-s42", mixed_set(42, 30, 3), 142, defaults),
      ransac_row("mid-30-4-s42", mixed_set(42, 30, 4), 142, defaults),
      ransac_row("mid-40-6-s41", mixed_set(41, 40, 6), 141, defaults),
      ransac_row("mid-40-8-s42", mixed_set(42, 40, 8), 142, defaults),
      ransac_row("small-4", mixed_set(31, 0, 4), 15, loose),
      ransac_row("small-5", mixed_set(32, 0, 5), 16, loose),
      ransac_row("small-6", mixed_set(33, 0, 6), 17, loose),
      ransac_row("small-7", mixed_set(34, 0, 7), 18, loose),
      ransac_row("collinear-12", collinear_set(12, 0), 19, loose),
      ransac_row("collinear-10-10", collinear_set(10, 10), 20, loose),
  };
  for (int cap : {1, 3, 13, 501}) {
    RansacParams p = loose;
    p.max_iterations = cap;
    got.push_back(ransac_row("noise-32-max" + std::to_string(cap), mixed_set(101, 0, 32), 21, p));
  }
  const std::vector<std::string> want = {
      "noise-32-cap 5 1b30e7e81b646cc6 500 22b999a933f67aa3 acafc1eb03fe46de",
      "noise-200-cap 6 cd30aae7edf10295 500 10feeea263d198f0 5e7b5023ae4d9be2",
      "noise-50-none none f5b7a0174a53fda4",
      "clean-12-6 12 c49bd70a64455fa5 25 c77200782e858f51 7151d4c342542620",
      "clean-10-4 10 133432d16e23d744 18 90b688c66d559ca5 9b80c150fcc16ea5",
      "clean-20-5 20 023af134995011a5 11 3db1208be5401295 81ab888f6a3d4ec1",
      "clean-14-4 14 c4d9a8af23c5af44 12 baeb531bc2d58c73 8fd8f2d67c62dc66",
      "clean-10-3 10 133432d16e23d744 13 f4b58d331eece431 ffed5a35a49cf07a",
      "clean-30-10 30 ad3f3e0237073944 14 36fe9caed9244c9f c07ce5449d2d3879",
      "clean-20-7 20 023af134995011a5 15 1b3df630488e81e8 e6bc1c4617b2804d",
      "clean-14-5 14 c4d9a8af23c5af44 16 87307d3b6ed8b404 3e0ac368cb4b5ec3",
      "clean-10-0 10 133432d16e23d744 1 eee8e1830320898c 9a93f105d55836be",
      "clean-10-10 10 133432d16e23d744 83 ca43343cb56dbc4c 2dc37f0a50bfb17a",
      "clean-10-16 10 133432d16e23d744 240 85113cfadb97a2aa 23d3368157200c0d",
      "mid-60-1-s41 60 d823ee269a8105e5 2 0638954c2dc1e44b c7070617d8d8a1f8",
      "mid-60-2-s41 60 d823ee269a8105e5 3 0638954c2dc1e44b f2011f638a4ef484",
      "mid-40-2-s42 40 aa9a93dd9cfde6a5 4 3432178d124139f2 06b0929d1391381a",
      "mid-30-3-s42 30 ad3f3e0237073944 5 4c510ffb7f1e0c6c feb7c4509195fc80",
      "mid-30-4-s42 30 ad3f3e0237073944 6 4c510ffb7f1e0c6c 48e26a6c34291c36",
      "mid-40-6-s41 40 aa9a93dd9cfde6a5 7 037814747e3a207c a8d5f9a6ac2dbd6c",
      "mid-40-8-s42 40 aa9a93dd9cfde6a5 9 3432178d124139f2 c97dad1b4016cd62",
      "small-4 4 64dbcbc3ab5bf1a5 1 0a91ce8534a0a503 20ba335925291d27",
      "small-5 4 56e98c709da32b83 11 07b87f8d58f53d96 48633316be8c0d64",
      "small-6 4 07eb76a88a8e1342 25 e6bad745425d920d ff21f0b454f607e8",
      "small-7 4 6a94b713dba6ff00 47 81fd3ea42c06ccc7 c5154f0561ec7e6f",
      "collinear-12 none f8929f3cc9eded23",
      "collinear-10-10 12 aa0381bcbb9fa5b5 39 a8558e5786e9bca7 22033c27995f13a5",
      "noise-32-max1 4 96e1da792ecf4f23 1 1b092f4c31917d83 759bed519c81098a",
      "noise-32-max3 4 96e1da792ecf4f23 3 1b092f4c31917d83 c1d7916c860d7202",
      "noise-32-max13 4 96e1da792ecf4f23 13 1b092f4c31917d83 128cbef91a7480d7",
      "noise-32-max501 5 160ae235ca2ce127 501 40d94571e496b4c5 733c35ce76dd6d50",
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

// The adaptive count log(1 - confidence) / log(1 - w⁴) is a double that can
// pass INT_MAX: an unstructured set whose best hypothesis keeps 4 inliers
// needs about 5.3·(n/4)⁴ iterations, 2.7e9 at n = 600. Confidence 1 makes it
// +inf and a NaN confidence makes it NaN. Each must run to the cap.
TEST(Ransac, AdaptiveCountDoesNotOverflow) {
  RansacParams loose;
  loose.min_inliers = 4;
  for (int n : {300, 600, 700, 1000, 2000}) {
    sim::Rng rng(41);
    const auto r = estimate_homography_ransac(mixed_set(109, 0, n), rng, loose);
    ASSERT_TRUE(r) << "n " << n;
    EXPECT_EQ(r->iterations, loose.max_iterations) << "n " << n;
  }
  for (double confidence : {1.0, std::numeric_limits<double>::quiet_NaN()}) {
    RansacParams p = loose;
    p.confidence = confidence;
    sim::Rng rng(43);
    const auto r = estimate_homography_ransac(mixed_set(101, 0, 32), rng, p);
    ASSERT_TRUE(r) << "confidence " << confidence;
    EXPECT_EQ(r->iterations, p.max_iterations) << "confidence " << confidence;
  }
}


/// The 4-point solve as RANSAC ran it one hypothesis at a time, before the
/// batched kernels: Gaussian elimination with partial pivoting over
/// Hartley-normalized points. Every kernel must return these bits (up to
/// the sign and payload of a NaN).
std::optional<Mat3> scalar_quad_solve(const Correspondence* c) {
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
  Mat3 ts;
  ts.m = {ss, 0, -ss * scx, 0, ss, -ss * scy, 0, 0, 1};
  Mat3 td_inv;
  td_inv.m = {1.0 / ds, 0, dcx, 0, 1.0 / ds, dcy, 0, 0, 1};
  Mat3 result = td_inv * hmat * ts;
  if (std::abs(result.determinant()) < 1e-12) return std::nullopt;
  if (std::abs(result.m[8]) < 1e-12) return std::nullopt;
  return result.normalized();
}

/// The consensus test by its definition, one hypot per point.
std::vector<int> hypot_scan(const Mat3& h, const std::vector<Correspondence>& pts, double thr) {
  std::vector<int> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (distance(h.apply(pts[i].src), pts[i].dst) < thr) out.push_back(static_cast<int>(i));
  }
  return out;
}

/// Four correspondences of one of a dozen kinds: general positions, small
/// integer grids (equal pivot magnitudes, repeats and collinear triples),
/// exact images under a projective map, collinear and coincident points,
/// spreads at and under the 1e-9 normalization cutoff, huge, signed-zero and
/// non-finite coordinates.
Correspondence random_pair(sim::Rng& rng) {
  return {{rng.uniform(0, 640), rng.uniform(0, 480)}, {rng.uniform(0, 640), rng.uniform(0, 480)}};
}

void random_quad(sim::Rng& rng, Correspondence* q) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto kind = rng.uniform_int(0, 11);
  Mat3 map;
  map.m = {rng.uniform(0.5, 2), rng.uniform(-1, 1), rng.uniform(-50, 50),
           rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(-50, 50),
           rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), 1.0};
  for (int i = 0; i < 4; ++i) {
    Correspondence& c = q[i];
    switch (kind) {
      case 0:
        c = random_pair(rng);
        break;
      case 1:
        c = {{double(rng.uniform_int(0, 3)), double(rng.uniform_int(0, 3))},
             {double(rng.uniform_int(0, 3)), double(rng.uniform_int(0, 3))}};
        break;
      case 2:
        c.src = {double(rng.uniform_int(0, 639)), double(rng.uniform_int(0, 479))};
        c.dst = map.apply(c.src);
        break;
      case 3: {  // src on one line, dst anywhere
        const double t = rng.uniform(-100, 100);
        c = {{3 + 2 * t, -1 + 5 * t}, {rng.uniform(0, 640), rng.uniform(0, 480)}};
        break;
      }
      case 4:  // src within 1e-7 of a line: pivots near the 1e-12 cutoff
        c.src = {double(i), 2.0 * i + (i == 3 ? rng.uniform(-1e-7, 1e-7) : 0.0)};
        c.dst = map.apply(c.src);
        break;
      case 5:  // a repeated point
        c = i == 3 ? q[rng.uniform_int(0, 2)] : random_pair(rng);
        break;
      case 6:  // one point four times: zero spread
        c = i == 0 ? random_pair(rng) : q[0];
        break;
      case 7: {  // spread around the 1e-9 cutoff on one side
        const double scale = rng.uniform(0.5e-9, 3e-9);
        c = {{100 + scale * rng.uniform(-1, 1), 50 + scale * rng.uniform(-1, 1)},
             {rng.uniform(0, 640), rng.uniform(0, 480)}};
        break;
      }
      case 8:
        c = {{rng.uniform(-1e150, 1e150), rng.uniform(-1e150, 1e150)},
             {rng.uniform(-1e-150, 1e-150), rng.uniform(-1e150, 1e150)}};
        break;
      case 9:
        c = {{rng.bernoulli(0.5) ? -0.0 : 0.0, double(i)},
             {double(i % 2), rng.bernoulli(0.5) ? -0.0 : 0.0}};
        break;
      case 10:  // small integers, one coordinate replaced below
        c = {{double(rng.uniform_int(-2, 2)), double(rng.uniform_int(-2, 2))},
             {double(rng.uniform_int(-2, 2)), double(rng.uniform_int(-2, 2))}};
        break;
      default:  // near-identity maps of small spreads
        c.src = {rng.uniform(0, 4), rng.uniform(0, 4)};
        c.dst = {c.src.x + rng.uniform(-1e-6, 1e-6), c.src.y + rng.uniform(-1e-6, 1e-6)};
        break;
    }
  }
  if (kind == 10) {
    // A NaN coordinate makes its mean distance NaN, and a NaN spread
    // normalizes by 1: the solve then runs on with NaN in half the rows.
    const double odd[] = {inf, -inf, nan, -nan, 1e308, -1e308, 1e154, -1e-320, -0.0};
    Correspondence& c = q[rng.uniform_int(0, 3)];
    double* coords[] = {&c.src.x, &c.src.y, &c.dst.x, &c.dst.y};
    *coords[rng.uniform_int(0, 3)] = odd[rng.uniform_int(0, 8)];
  }
}

/// Points for the consensus scan of `h`: images under h moved by residuals
/// near the threshold (in and out of the band), a few far ones and a few
/// non-finite ones.
std::vector<Correspondence> scan_points(sim::Rng& rng, const Mat3& h, double thr, int n) {
  std::vector<Correspondence> pts;
  for (int i = 0; i < n; ++i) {
    const Vec2 src{rng.uniform(0, 640), rng.uniform(0, 480)};
    const Vec2 mapped = h.apply(src);
    const double angle = rng.uniform(0, 6.283185307179586);
    double r = thr * (1 + rng.uniform(-3e-9, 3e-9));
    switch (i % 5) {
      case 1:
        r = rng.uniform(0, 2 * thr);
        break;
      case 2:
        r = rng.uniform(0, 1e3);
        break;
      case 3:
        r = i % 15 == 3 ? std::numeric_limits<double>::quiet_NaN() : rng.uniform(0, thr);
        break;
      default:
        break;
    }
    pts.push_back({src, {mapped.x + r * std::cos(angle), mapped.y + r * std::sin(angle)}});
  }
  return pts;
}

// Equal bits in every entry, except that a NaN need only meet a NaN: C++
// leaves the sign and payload of a NaN result unspecified, and the
// reference's change with the optimisation level it is compiled at.
bool same_homography(const Mat3& got, const Mat3& want) {
  for (std::size_t i = 0; i < got.m.size(); ++i) {
    if (std::isnan(got.m[i]) != std::isnan(want.m[i])) return false;
    if (!std::isnan(got.m[i]) && std::memcmp(&got.m[i], &want.m[i], sizeof got.m[i]) != 0) {
      return false;
    }
  }
  return true;
}

// Every kernel the host runs against the scalar 4-point solve (bitwise up to
// NaN signs and payloads, and on which hypotheses have no homography) over
// 120k seeded hypotheses in batches of 1-8, and against the
// one-hypot-per-point consensus test on the homographies they produce.
TEST(Ransac, KernelsAgreeWithScalarReference) {
  sim::Rng rng(113);
  std::vector<std::string> kernels_run;
  std::vector<int> buf;
  int hypotheses = 0, solved_total = 0, scans = 0;
  for (int b = 0; b < 16000; ++b) {
    const int lanes = b % 7 == 0 ? 1 + b % detail::kRansacBatch : detail::kRansacBatch;
    hypotheses += lanes;
    Correspondence quad[detail::kRansacBatch][4];
    detail::QuadBatch quads{};
    std::optional<Mat3> want[detail::kRansacBatch];
    for (int l = 0; l < lanes; ++l) {
      random_quad(rng, quad[l]);
      for (int i = 0; i < 4; ++i) {
        quads.q[0][i][l] = quad[l][i].src.x;
        quads.q[1][i][l] = quad[l][i].src.y;
        quads.q[2][i][l] = quad[l][i].dst.x;
        quads.q[3][i][l] = quad[l][i].dst.y;
      }
      want[l] = scalar_quad_solve(quad[l]);
      solved_total += want[l] ? 1 : 0;
    }
    const double thr = b % 97 == 0 ? 1e-160 : b % 89 == 0 ? 1e300 : rng.uniform(0.5, 4.0);
    std::vector<std::vector<Correspondence>> scan_sets(static_cast<std::size_t>(lanes));
    if (b % 4 == 0) {
      for (int l = 0; l < lanes; ++l) {
        if (!want[l]) continue;
        scan_sets[static_cast<std::size_t>(l)] = scan_points(rng, *want[l], thr, 1 + l * 7);
      }
    }
    for (const detail::RansacKernel& k : detail::ransac_kernels()) {
      if (!k.host_runs()) continue;
      if (std::find(kernels_run.begin(), kernels_run.end(), k.name) == kernels_run.end()) {
        kernels_run.emplace_back(k.name);
      }
      detail::HomographyBatch got;
      const unsigned solved = k.solve(quads, lanes, got);
      ASSERT_EQ(solved >> lanes, 0u) << k.name << " batch " << b;
      for (int l = 0; l < lanes; ++l) {
        ASSERT_EQ((solved >> l & 1) != 0, want[l].has_value())
            << k.name << " batch " << b << " lane " << l;
        if (!want[l]) continue;
        const Mat3 h = got.lane(l);
        ASSERT_TRUE(same_homography(h, *want[l]))
            << k.name << " batch " << b << " lane " << l;
        const auto& pts = scan_sets[static_cast<std::size_t>(l)];
        if (pts.empty()) continue;
        detail::PointPlanes planes;
        planes.assign(pts);
        buf.assign(planes.padded + detail::kInlierSlack, -1);
        const int count = k.inliers(h, planes, detail::InlierTest(thr), buf.data());
        ASSERT_EQ(std::vector<int>(buf.begin(), buf.begin() + count), hypot_scan(h, pts, thr))
            << k.name << " batch " << b << " lane " << l << " thr " << thr;
        ++scans;
      }
    }
  }
  // A map whose w = x - 10 vanishes among the points: Mat3::apply clamps a
  // |w| under 1e-12 to 1e-12, and the destinations sit 0.5 px off the
  // clamped images.
  Mat3 horizon;
  horizon.m = {1, 0, 0, 0, 1, 0, 1, 0, -10};
  std::vector<Correspondence> near_horizon;
  for (int i = -60; i <= 60; ++i) {
    const Vec2 src{10 + i * 2e-14, 1e-3 * (i % 7)};
    const Vec2 mapped = horizon.apply(src);
    near_horizon.push_back({src, {mapped.x + 0.5, mapped.y}});
  }
  detail::PointPlanes planes;
  planes.assign(near_horizon);
  buf.assign(planes.padded + detail::kInlierSlack, -1);
  const auto want_horizon = hypot_scan(horizon, near_horizon, 3.0);
  EXPECT_FALSE(want_horizon.empty());
  for (const detail::RansacKernel& k : detail::ransac_kernels()) {
    if (!k.host_runs()) continue;
    const int count = k.inliers(horizon, planes, detail::InlierTest(3.0), buf.data());
    EXPECT_EQ(std::vector<int>(buf.begin(), buf.begin() + count), want_horizon) << k.name;
  }

  std::string ran;
  for (const std::string& k : kernels_run) ran += " " + k;
  std::printf("[ kernels  ] ran:%s; selected: %s; %d of %d hypotheses solved, %d scans\n",
              ran.c_str(), detail::selected_ransac_kernel().name, solved_total, hypotheses, scans);
  EXPECT_FALSE(kernels_run.empty());
  EXPECT_GE(hypotheses, 100000);
}
}  // namespace
}  // namespace arnet::vision
