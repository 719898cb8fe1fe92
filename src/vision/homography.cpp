#include "arnet/vision/homography.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && !defined(ARNET_NO_SIMD)
#include <immintrin.h>
#endif

#include "ransac_kernels.hpp"

// The lane helpers below take and return GCC vectors up to 64 bytes wide.
// They are always inlined into a kernel built for that width, so no call
// crosses the ABI boundary this warning is about.
#pragma GCC diagnostic ignored "-Wpsabi"

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

/// W doubles, and the W 64-bit masks (all ones or all zeros) a comparison
/// of them yields: GCC vector extensions. Each operator applies, lane by
/// lane, the IEEE operation the scalar expression applies, so with
/// contraction off (src/CMakeLists.txt) every lane computes the scalar
/// code's bits.
template <int W>
struct Lanes {
  typedef double V __attribute__((vector_size(8 * W)));
  typedef std::int64_t M __attribute__((vector_size(8 * W)));
};

template <class V>
[[gnu::always_inline]] inline V splat(double x) {
  V v;
  for (std::size_t l = 0; l < sizeof v / sizeof x; ++l) v[l] = x;
  return v;
}

template <class V>
[[gnu::always_inline]] inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// std::abs: clears the sign bit.
template <class M, class V>
[[gnu::always_inline]] inline V abs(const V& v) {
  return reinterpret_cast<V>(reinterpret_cast<M>(v) & std::numeric_limits<std::int64_t>::max());
}

/// A kernel's lane count, its mask-to-bits step (bit l set when lane l of
/// the mask is), and `append`, which writes base + l for each set bit l,
/// ascending, and returns how many it wrote (it may write up to
/// kInlierSlack past them).
struct PortableIsa {
  static constexpr int kLanes = 2;
  [[gnu::always_inline]] static unsigned bits(const Lanes<kLanes>::M& m) {
    unsigned b = 0;
    for (int l = 0; l < kLanes; ++l) b |= static_cast<unsigned>(m[l] & 1) << l;
    return b;
  }
  [[gnu::always_inline]] static int append(unsigned bits, int base, int* out) {
    int count = 0;
    for (; bits != 0; bits &= bits - 1) out[count++] = base + std::countr_zero(bits);
    return count;
  }
};

#if defined(__x86_64__) && !defined(ARNET_NO_SIMD)
struct Avx2Isa {
  static constexpr int kLanes = 4;
  __attribute__((target("avx2"))) static unsigned bits(const Lanes<kLanes>::M& m) {
    return static_cast<unsigned>(_mm256_movemask_pd(reinterpret_cast<__m256d>(m)));
  }
  [[gnu::always_inline]] static int append(unsigned bits, int base, int* out) {
    return PortableIsa::append(bits, base, out);
  }
};

struct Avx512Isa {
  static constexpr int kLanes = 8;
  __attribute__((target("avx512f"))) static unsigned bits(const Lanes<kLanes>::M& m) {
    const auto v = reinterpret_cast<__m512i>(m);
    return _mm512_test_epi64_mask(v, v);
  }
  __attribute__((target("avx512f"))) static int append(unsigned bits, int base, int* out) {
    const __m512i index = _mm512_add_epi32(
        _mm512_set1_epi32(base),
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    _mm512_storeu_si512(out, _mm512_maskz_compress_epi32(static_cast<__mmask16>(bits), index));
    return std::popcount(bits);
  }
};
#endif

/// 3x3 product r = a * b over lanes, summed as Mat3::operator* sums.
template <class V>
[[gnu::always_inline]] inline void mat3_mul(const V (&a)[9], const V (&b)[9], V (&r)[9]) {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      V s = splat<V>(0.0);
      for (int k = 0; k < 3; ++k) s += a[3 * i + k] * b[3 * k + j];
      r[3 * i + j] = s;
    }
  }
}

/// The direct homography of 4 correspondences, W hypotheses per step. With
/// h22 pinned to 1 the DLT constraints become an 8x8 linear system over
/// Hartley-normalized points (centroid at the origin, mean distance sqrt(2),
/// so the pivots are well scaled), solved by Gaussian elimination with
/// partial pivoting: far cheaper than the general DLT's 9x9 eigensolve. A
/// degenerate sample (collinear points) hits a ~zero pivot and has no
/// homography; RANSAC skips it.
///
/// Every lane repeats the scalar elimination exactly. The pivot is the
/// first row of largest magnitude, the row swap and the skip of a zero
/// factor are selects, and a lane whose pivot fell under 1e-12 runs on and
/// is masked out at the end. The mean distances take one libm hypot per
/// lane and point, called as hypot(max(|x|, |y|), min(|x|, |y|)): C's
/// Annex F (F.10.4.3) makes hypot(x, y), hypot(y, x) and hypot(x, -y)
/// equivalent, and glibc's hypot orders its arguments so first, so its
/// ordering branch is always predicted.
template <class Isa>
[[gnu::always_inline]] inline unsigned solve_quads(const detail::QuadBatch& in, int lanes,
                                                   detail::HomographyBatch& out) {
  constexpr int W = Isa::kLanes;
  using V = typename Lanes<W>::V;
  using M = typename Lanes<W>::M;
  const V zero = splat<V>(0.0);
  const V one = splat<V>(1.0);
  unsigned solved = 0;
  for (int base = 0; base < lanes; base += W) {
    // c[k][i]: coordinate k (src.x, src.y, dst.x, dst.y) of point i.
    V c[4][4];
    for (int k = 0; k < 4; ++k) {
      for (int i = 0; i < 4; ++i) c[k][i] = load<V>(&in.q[k][i][base]);
    }
    V centroid[4];
    for (int k = 0; k < 4; ++k) {
      centroid[k] = zero;
      for (int i = 0; i < 4; ++i) centroid[k] += c[k][i];
      centroid[k] /= 4.0;
    }
    // Mean distance to the centroid, source side then destination side: the
    // offsets of all eight points first, then one hypot call each.
    alignas(64) double offset[8][2][W];
    for (int i = 0; i < 4; ++i) {
      for (int side = 0; side < 2; ++side) {
        const V ex = abs<M>(c[2 * side][i] - centroid[2 * side]);
        const V ey = abs<M>(c[2 * side + 1][i] - centroid[2 * side + 1]);
        const M swap = ex < ey;
        store(offset[2 * i + side][0], swap ? ey : ex);
        store(offset[2 * i + side][1], swap ? ex : ey);
      }
    }
    alignas(64) double dist[8][W];
    for (int p = 0; p < 8; ++p) {
      for (int l = 0; l < W; ++l) dist[p][l] = std::hypot(offset[p][0][l], offset[p][1][l]);
    }
    V spread[2] = {zero, zero};
    for (int i = 0; i < 4; ++i) {
      for (int side = 0; side < 2; ++side) spread[side] += load<V>(dist[2 * i + side]);
    }
    const V sd = spread[0] / 4.0;
    const V dd = spread[1] / 4.0;
    const V ss = sd > 1e-9 ? std::sqrt(2.0) / sd : one;
    const V ds = dd > 1e-9 ? std::sqrt(2.0) / dd : one;

    // Augmented 8x9 system over the normalized points.
    V a[8][9];
    for (int i = 0; i < 4; ++i) {
      const V x = ss * (c[0][i] - centroid[0]), y = ss * (c[1][i] - centroid[1]);
      const V u = ds * (c[2][i] - centroid[2]), v = ds * (c[3][i] - centroid[3]);
      V* r0 = a[2 * i];
      V* r1 = a[2 * i + 1];
      r0[0] = x;
      r0[1] = y;
      r0[2] = one;
      r0[3] = zero;
      r0[4] = zero;
      r0[5] = zero;
      r0[6] = -u * x;
      r0[7] = -u * y;
      r0[8] = u;
      r1[0] = zero;
      r1[1] = zero;
      r1[2] = zero;
      r1[3] = x;
      r1[4] = y;
      r1[5] = one;
      r1[6] = -v * x;
      r1[7] = -v * y;
      r1[8] = v;
    }
    unsigned singular = 0;  // lanes whose pivot fell under 1e-12
    for (int col = 0; col < 8; ++col) {
      V pivot_mag = abs<M>(a[col][col]);
      M pivot = M{} + col;
      for (int row = col + 1; row < 8; ++row) {
        const V mag = abs<M>(a[row][col]);
        const M larger = mag > pivot_mag;
        pivot_mag = larger ? mag : pivot_mag;
        pivot = larger ? M{} + row : pivot;
      }
      singular |= Isa::bits(pivot_mag < 1e-12);
      // Swap rows col and pivot from column col on and eliminate under the
      // pivot, one column k at a time: the pivot row's entry moves up to
      // row col, row col's old entry moves down to the pivot row, and each
      // row under the pivot subtracts f · (new row col) unless its factor f
      // is zero. Column col under the pivot is never read again and is
      // left as it is.
      const V displaced = a[col][col];
      V p = displaced;
      for (int row = col + 1; row < 8; ++row) p = pivot == row ? a[row][col] : p;
      a[col][col] = p;
      const V inv = 1.0 / p;
      V f[8];
      for (int row = col + 1; row < 8; ++row) {
        f[row] = (pivot == row ? displaced : a[row][col]) * inv;
      }
      for (int k = col + 1; k < 9; ++k) {
        const V old = a[col][k];
        V top = old;
        for (int row = col + 1; row < 8; ++row) top = pivot == row ? a[row][k] : top;
        a[col][k] = top;
        for (int row = col + 1; row < 8; ++row) {
          const V r = pivot == row ? old : a[row][k];
          a[row][k] = f[row] == 0.0 ? r : r - f[row] * top;
        }
      }
    }
    V hn[8];
    for (int row = 7; row >= 0; --row) {
      V v = a[row][8];
      for (int k = row + 1; k < 8; ++k) v -= a[row][k] * hn[k];
      hn[row] = v / a[row][row];
    }

    // Denormalize: H = Td^-1 * Hn * Ts.
    const V hmat[9] = {hn[0], hn[1], hn[2], hn[3], hn[4], hn[5], hn[6], hn[7], one};
    const V ts[9] = {ss,   zero, -ss * centroid[0], zero, ss, -ss * centroid[1],
                     zero, zero, one};
    const V inv_ds = 1.0 / ds;
    const V td_inv[9] = {inv_ds, zero, centroid[2], zero, inv_ds, centroid[3], zero, zero, one};
    V t[9], h[9];
    mat3_mul(td_inv, hmat, t);
    mat3_mul(t, ts, h);
    const V det = h[0] * (h[4] * h[8] - h[5] * h[7]) - h[1] * (h[3] * h[8] - h[5] * h[6]) +
                  h[2] * (h[3] * h[7] - h[4] * h[6]);
    const V m8 = h[8];
    const unsigned failed =
        singular | Isa::bits(abs<M>(det) < 1e-12) | Isa::bits(abs<M>(m8) < 1e-12);
    // Mat3::normalized().
    const M scale = abs<M>(m8) > 1e-12;
    for (int e = 0; e < 9; ++e) store(&out.h[e][base], scale ? h[e] / m8 : h[e]);
    solved |= (~failed & ((1u << W) - 1)) << base;
  }
  return solved & ((1u << lanes) - 1);
}

/// The consensus scan, W points per step: Mat3::apply and the box test on
/// every lane, and `s` against the band. Only a step with a lane in the band
/// walks its lanes one by one, for hypot.
template <class Isa>
[[gnu::always_inline]] inline int scan_inliers(const Mat3& h, const detail::PointPlanes& pts,
                                               const detail::InlierTest& test, int* out) {
  constexpr int W = Isa::kLanes;
  using V = typename Lanes<W>::V;
  using M = typename Lanes<W>::M;
  V m[9];
  for (int e = 0; e < 9; ++e) m[e] = splat<V>(h.m[static_cast<std::size_t>(e)]);
  const V tiny = splat<V>(1e-12);
  const V thr = splat<V>(test.thr);
  const V accept_below = splat<V>(test.accept_below);
  const V reject_above = splat<V>(test.reject_above);
  const double* sx = pts.plane(0);
  const double* sy = pts.plane(1);
  const double* tx = pts.plane(2);
  const double* ty = pts.plane(3);
  int count = 0;
  for (std::size_t base = 0; base < pts.n; base += W) {
    const V x = load<V>(sx + base);
    const V y = load<V>(sy + base);
    V w = m[6] * x + m[7] * y + m[8];
    w = abs<M>(w) < 1e-12 ? tiny : w;
    const V rx = (m[0] * x + m[1] * y + m[2]) / w - load<V>(tx + base);
    const V ry = (m[3] * x + m[4] * y + m[5]) / w - load<V>(ty + base);
    unsigned box = Isa::bits(abs<M>(rx) < thr) & Isa::bits(abs<M>(ry) < thr);
    if (pts.n - base < W) box &= (1u << (pts.n - base)) - 1;
    const V s = rx * rx + ry * ry;
    const unsigned accept = box & Isa::bits(s < accept_below);
    const unsigned band = box & ~accept & ~Isa::bits(s > reject_above);
    if (band == 0) {
      count += Isa::append(accept, static_cast<int>(base), out + count);
      continue;
    }
    alignas(64) double bx[W], by[W];
    store(bx, rx);
    store(by, ry);
    for (; box != 0; box &= box - 1) {
      const int l = std::countr_zero(box);
      const bool in = (accept >> l & 1) != 0 ||
                      ((band >> l & 1) != 0 && std::hypot(bx[l], by[l]) < test.thr);
      if (in) out[count++] = static_cast<int>(base) + l;
    }
  }
  return count;
}

bool always() { return true; }

unsigned portable_solve(const detail::QuadBatch& quads, int lanes, detail::HomographyBatch& out) {
  return solve_quads<PortableIsa>(quads, lanes, out);
}

/// The portable consensus scan is scan_inliers' test one point at a time:
/// in lanes of GCC vectors, building and testing the masks of every step
/// cost more than the scalar early exits (EXPERIMENTS.md E12).
int portable_inliers(const Mat3& h, const detail::PointPlanes& pts,
                     const detail::InlierTest& test, int* out) {
  const double* sx = pts.plane(0);
  const double* sy = pts.plane(1);
  const double* tx = pts.plane(2);
  const double* ty = pts.plane(3);
  int count = 0;
  for (std::size_t i = 0; i < pts.n; ++i) {
    const Vec2 mapped = h.apply({sx[i], sy[i]});
    const double dx = mapped.x - tx[i];
    const double dy = mapped.y - ty[i];
    if (!(std::abs(dx) < test.thr && std::abs(dy) < test.thr)) continue;
    const double s = dx * dx + dy * dy;
    if (s > test.reject_above) continue;
    if (s < test.accept_below || std::hypot(dx, dy) < test.thr) out[count++] = static_cast<int>(i);
  }
  return count;
}

#if defined(__x86_64__) && !defined(ARNET_NO_SIMD)

__attribute__((target("avx2"))) unsigned avx2_solve(const detail::QuadBatch& quads, int lanes,
                                                     detail::HomographyBatch& out) {
  return solve_quads<Avx2Isa>(quads, lanes, out);
}

__attribute__((target("avx2"))) int avx2_inliers(const Mat3& h, const detail::PointPlanes& pts,
                                                 const detail::InlierTest& test, int* out) {
  return scan_inliers<Avx2Isa>(h, pts, test, out);
}

__attribute__((target("avx512f"))) unsigned avx512_solve(const detail::QuadBatch& quads,
                                                         int lanes,
                                                         detail::HomographyBatch& out) {
  return solve_quads<Avx512Isa>(quads, lanes, out);
}

__attribute__((target("avx512f"))) int avx512_inliers(const Mat3& h,
                                                      const detail::PointPlanes& pts,
                                                      const detail::InlierTest& test, int* out) {
  return scan_inliers<Avx512Isa>(h, pts, test, out);
}

bool has_avx2() { return __builtin_cpu_supports("avx2"); }

bool has_avx512() { return __builtin_cpu_supports("avx512f"); }

constexpr detail::RansacKernel kKernels[] = {
    {"portable", always, portable_solve, portable_inliers},
    {"avx2", has_avx2, avx2_solve, avx2_inliers},
    {"avx512f", has_avx512, avx512_solve, avx512_inliers},
};

#else

// Other ISAs and the ARNET_NO_SIMD build: the portable kernel.
constexpr detail::RansacKernel kKernels[] = {
    {"portable", always, portable_solve, portable_inliers},
};

#endif

/// Four distinct indices into n correspondences, redrawing repeats.
void draw_sample(sim::Rng& rng, int n, int (&idx)[4]) {
  for (int k = 0; k < 4; ++k) {
    bool dup = true;
    while (dup) {
      idx[k] = static_cast<int>(rng.uniform_int(0, n - 1));
      dup = false;
      for (int j = 0; j < k; ++j) dup |= idx[j] == idx[k];
    }
  }
}

/// Iterations needed for `confidence` that some sample was all inliers,
/// given `inliers` of n. A count not below max_iterations (+inf for
/// confidence 1, NaN for a NaN confidence) is max_iterations and a negative
/// one is 0: casting a double outside int's range to int is undefined.
int adaptive_iterations(int inliers, int n, int iteration, const RansacParams& params) {
  const double w = static_cast<double>(inliers) / n;
  const double p_outlier_sample = 1.0 - w * w * w * w;
  if (p_outlier_sample < 1e-9) return iteration + 1;
  const double needed = std::log(1.0 - params.confidence) / std::log(p_outlier_sample);
  if (!(needed < params.max_iterations)) return params.max_iterations;
  return static_cast<int>(std::ceil(std::max(needed, 0.0)));
}

/// RANSAC's reprojection tolerance: a correspondence within this many pixels
/// of its destination is an inlier.
constexpr double kInlierThresholdPx = 3.0;

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

void detail::PointPlanes::assign(const std::vector<Correspondence>& pts) {
  n = pts.size();
  padded = (n + kRansacBatch - 1) / kRansacBatch * kRansacBatch;
  v.assign(4 * padded, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = pts[i].src.x;
    v[padded + i] = pts[i].src.y;
    v[2 * padded + i] = pts[i].dst.x;
    v[3 * padded + i] = pts[i].dst.y;
  }
}

// A band around thr² outside which s = dx² + dy² decides `hypot < thr`. s is
// three roundings (relative error ~2e-16) off the true squared distance, so
// s below the band puts the true distance under thr·(1 − 5e-10) and s above
// it over thr·(1 + 5e-10), and a hypot within 1e-10 of the truth lands on
// the same side of thr. That needs thr² normal (an underflowed s is then off
// by far less than the band) and 2·thr² finite (the box test bounds s by
// it); for other thresholds the bounds can never hold and hypot decides
// every point. hypot(dx, dy) >= max(|dx|, |dy|) under faithful rounding, so
// a point failing the box test fails `hypot < thr` too; most of RANSAC's
// hypotheses are wrong and reject nearly every point there. The negated `<`
// of the box test also rejects NaN residuals, as the hypot comparison does.
detail::InlierTest::InlierTest(double threshold_px) : thr(threshold_px) {
  const double thr2 = thr * thr;
  const bool band = thr2 >= std::numeric_limits<double>::min() && thr2 <= 0x1p1000;
  accept_below = band ? thr2 * (1 - 1e-9) : -1.0;
  reject_above = band ? thr2 * (1 + 1e-9) : std::numeric_limits<double>::infinity();
}

std::span<const detail::RansacKernel> detail::ransac_kernels() { return kKernels; }

const detail::RansacKernel& detail::selected_ransac_kernel() {
  // CPUID is asked once, here, rather than through a loader ifunc, which
  // runs before the ThreadSanitizer runtime is up.
  static const RansacKernel& chosen = []() -> const RansacKernel& {
    const RansacKernel* k = &kKernels[0];
    for (const RansacKernel& c : kKernels) {
      if (c.host_runs()) k = &c;
    }
    return *k;
  }();
  return chosen;
}

void homography_inliers(const Mat3& h, const std::vector<Correspondence>& pts,
                        double threshold_px, std::vector<int>& out) {
  detail::PointPlanes planes;
  planes.assign(pts);
  out.resize(planes.padded + detail::kInlierSlack);
  out.resize(static_cast<std::size_t>(detail::selected_ransac_kernel().inliers(
      h, planes, detail::InlierTest(threshold_px), out.data())));
}

std::optional<RansacResult> estimate_homography_ransac(const std::vector<Correspondence>& pts,
                                                       sim::Rng& rng,
                                                       const RansacParams& params) {
  const int n = static_cast<int>(pts.size());
  if (n < 4) return std::nullopt;

  const detail::RansacKernel& kernel = detail::selected_ransac_kernel();
  detail::PointPlanes planes;
  planes.assign(pts);
  const detail::InlierTest test(kInlierThresholdPx);
  detail::QuadBatch quads{};  // lanes past a short batch hold zeros or older samples
  detail::HomographyBatch hyps;
  // Inlier index buffers: the best hypothesis's so far, and the current one's.
  std::vector<int> best_inliers(planes.padded + detail::kInlierSlack);
  std::vector<int> inliers(best_inliers.size());
  int best_count = 0;
  int iterations_needed = params.max_iterations;
  int it = 0;
  // Iterations run in batches: the samples of up to eight are drawn ahead
  // and solved together, then scanned and compared with the best in order,
  // each only while the iteration is below the adaptive count, exactly as
  // one at a time. A batch never reaches past the count as it stands when
  // the batch starts. When a hypothesis lowers the count into the batch,
  // the iterations past it are dropped unscanned: the RNG goes back to its
  // state before the batch and redraws the samples of the iterations that
  // ran, so it ends where the serial loop would leave it.
  while (it < std::min(iterations_needed, params.max_iterations)) {
    const int lanes =
        std::min(detail::kRansacBatch, std::min(iterations_needed, params.max_iterations) - it);
    const sim::Rng before = rng;
    int idx[4];
    for (int l = 0; l < lanes; ++l) {
      draw_sample(rng, n, idx);
      for (int i = 0; i < 4; ++i) {
        const Correspondence& c = pts[static_cast<std::size_t>(idx[i])];
        quads.q[0][i][l] = c.src.x;
        quads.q[1][i][l] = c.src.y;
        quads.q[2][i][l] = c.dst.x;
        quads.q[3][i][l] = c.dst.y;
      }
    }
    const unsigned solved = kernel.solve(quads, lanes, hyps);
    int ran = 0;
    while (ran < lanes && it + ran < iterations_needed) {
      const int l = ran++;
      if ((solved >> l & 1) == 0) continue;
      const int count = kernel.inliers(hyps.lane(l), planes, test, inliers.data());
      if (count <= best_count) continue;
      std::swap(best_inliers, inliers);
      best_count = count;
      iterations_needed = adaptive_iterations(best_count, n, it + l, params);
    }
    if (ran < lanes) {
      rng = before;
      for (int l = 0; l < ran; ++l) draw_sample(rng, n, idx);
    }
    it += ran;
  }
  best_inliers.resize(static_cast<std::size_t>(best_count));

  if (best_count < params.min_inliers) return std::nullopt;

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
