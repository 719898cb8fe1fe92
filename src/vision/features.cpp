#include "arnet/vision/features.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__) && !defined(ARNET_NO_SIMD)
#include <immintrin.h>
#endif

#include "arnet/sim/rng.hpp"
#include "arnet/vision/simd.hpp"
#include "corners.hpp"
#include "hamming.hpp"

namespace arnet::vision {

namespace {

// Bresenham circle of radius 3 (the classic FAST ring).
constexpr int kRing[16][2] = {{0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},
                              {2, 2},  {1, 3},  {0, 3},  {-1, 3}, {-2, 2}, {-3, 1},
                              {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

/// Does the ring around `center` contain >= 9 contiguous pixels all brighter
/// / darker than the thresholded center? Returns the corner score (sum of
/// absolute differences over the qualifying arc) or 0. `ring_off` holds the
/// 16 ring taps as byte offsets from the center pixel (stride-dependent, so
/// the caller precomputes them once per image).
int fast_score_at(const std::uint8_t* center, const int ring_off[16], int threshold) {
  int c = *center;
  int bright = c + threshold;
  int dark = c - threshold;
  int vals[16];
  std::uint32_t bright_mask = 0, dark_mask = 0;
  for (int i = 0; i < 16; ++i) {
    vals[i] = center[ring_off[i]];
    bright_mask |= static_cast<std::uint32_t>(vals[i] > bright) << i;
    dark_mask |= static_cast<std::uint32_t>(vals[i] < dark) << i;
  }
  // Arc pre-filter: a bright run below needs 9 contiguous bright_mask bits,
  // and a dark run 9 contiguous pixels classified -1, a subset of dark_mask
  // (a pixel in both masks, possible only for negative thresholds, is
  // classified +1). Most cascade survivors fail both and skip the scan.
  if (!detail::has_arc9(bright_mask) && !detail::has_arc9(dark_mask)) return 0;
  // Classify ring pixels: +1 brighter, -1 darker, 0 neither.
  int cls[16];
  for (int i = 0; i < 16; ++i) cls[i] = vals[i] > bright ? 1 : (vals[i] < dark ? -1 : 0);
  // Search for an arc of >= 9 equal nonzero classes (wrap-around).
  for (int polarity : {1, -1}) {
    int run = 0;
    int best_run = 0;
    int run_score = 0, best_score = 0;
    for (int i = 0; i < 32; ++i) {  // doubled for wrap-around
      if (cls[i % 16] == polarity) {
        ++run;
        run_score += std::abs(vals[i % 16] - c);
        if (run > best_run) {
          best_run = run;
          best_score = run_score;
        }
        if (run >= 16) break;
      } else {
        run = 0;
        run_score = 0;
      }
    }
    if (best_run >= 9) return best_score;
  }
  return 0;
}

}  // namespace

std::vector<Feature> fast_detect(const Image& img, int threshold, int nms_radius) {
  const int w = img.width(), h = img.height();
  const int stride = img.stride();
  int ring_off[16];
  for (int i = 0; i < 16; ++i) ring_off[i] = kRing[i][1] * stride + kRing[i][0];

  std::vector<Feature> raw;
  if (threshold >= 0 && threshold <= 255) {
    // Early-reject cascade. Any arc of >= 9 contiguous ring positions (out
    // of 16) must contain one of the vertical cardinals {0, 8} AND one of
    // the horizontal cardinals {4, 12}: members of each pair sit 8 apart, so
    // at most 7 consecutive positions can miss both. A corner therefore
    // needs, for one polarity, a qualifying pixel in each pair — a necessary
    // condition checked for 16 candidate centers at once. Saturating u8
    // center +/- threshold matches the scalar int comparison exactly for
    // thresholds in [0, 255]: if center + t > 255 no u8 value exceeds either
    // bound, and likewise below 0. Survivors (a few percent of pixels on
    // natural scenes) are re-scored with the exact scalar routine, so the
    // result list is identical to the plain scan.
    const simd::U8x16 thr = simd::U8x16::splat(static_cast<std::uint8_t>(threshold));
    for (int y = 3; y < h - 3; ++y) {
      const std::uint8_t* r0 = img.row(y);
      const std::uint8_t* rm3 = img.row(y - 3);
      const std::uint8_t* rp3 = img.row(y + 3);
      for (int x = 3; x < w - 3; x += 16) {
        const simd::U8x16 c = simd::U8x16::load(r0 + x);
        const simd::U8x16 hi = simd::adds(c, thr);
        const simd::U8x16 lo = simd::subs(c, thr);
        const simd::U8x16 p0 = simd::U8x16::load(rm3 + x);
        const simd::U8x16 p8 = simd::U8x16::load(rp3 + x);
        const simd::U8x16 p4 = simd::U8x16::load(r0 + x + 3);
        const simd::U8x16 p12 = simd::U8x16::load(r0 + x - 3);
        const simd::U8x16 bright = simd::bit_and(simd::bit_or(simd::gt(p0, hi), simd::gt(p8, hi)),
                                                 simd::bit_or(simd::gt(p4, hi), simd::gt(p12, hi)));
        const simd::U8x16 dark = simd::bit_and(simd::bit_or(simd::gt(lo, p0), simd::gt(lo, p8)),
                                               simd::bit_or(simd::gt(lo, p4), simd::gt(lo, p12)));
        std::uint32_t m = simd::movemask(simd::bit_or(bright, dark));
        const int valid = std::min(16, w - 3 - x);
        if (valid < 16) m &= (1u << valid) - 1;
        while (m != 0) {
          const int lane = std::countr_zero(m);
          m &= m - 1;
          const int s = fast_score_at(r0 + x + lane, ring_off, threshold);
          if (s > 0) raw.push_back({x + lane, y, s});
        }
      }
    }
  } else {
    // Degenerate thresholds (outside u8 range) skip the cascade; the scalar
    // scan is the reference semantics either way.
    for (int y = 3; y < h - 3; ++y) {
      const std::uint8_t* r0 = img.row(y);
      for (int x = 3; x < w - 3; ++x) {
        const int s = fast_score_at(r0 + x, ring_off, threshold);
        if (s > 0) raw.push_back({x, y, s});
      }
    }
  }
  return detail::greedy_nms(std::move(raw), nms_radius);
}

std::vector<Feature> detail::greedy_nms(std::vector<Feature> raw, int radius) {
  std::sort(raw.begin(), raw.end(), [](const Feature& a, const Feature& b) {
    return a.score > b.score;
  });
  std::vector<Feature> kept;
  if (raw.empty()) return kept;
  // Kept features are bucketed in a grid of (radius+1)-pixel cells: one
  // within `radius` of a candidate in both axes lies in the candidate's cell
  // or one of its eight neighbours, so the 3x3 cells hold every kept feature
  // the all-pairs scan would have tested — the same kept list, in order.
  const std::int64_t cell = std::max<std::int64_t>(1, std::int64_t{radius} + 1);
  int x0 = raw[0].x, x1 = x0, y0 = raw[0].y, y1 = y0;
  for (const Feature& f : raw) {
    x0 = std::min(x0, f.x);
    x1 = std::max(x1, f.x);
    y0 = std::min(y0, f.y);
    y1 = std::max(y1, f.y);
  }
  const int gw = static_cast<int>((std::int64_t{x1} - x0) / cell) + 1;
  const int gh = static_cast<int>((std::int64_t{y1} - y0) / cell) + 1;
  // Per cell, the newest kept feature; per kept feature, the one before it
  // in its cell (-1 ends a chain).
  std::vector<int> head(static_cast<std::size_t>(gw) * static_cast<std::size_t>(gh), -1);
  std::vector<int> next;
  for (const Feature& f : raw) {
    const int cx = static_cast<int>((std::int64_t{f.x} - x0) / cell);
    const int cy = static_cast<int>((std::int64_t{f.y} - y0) / cell);
    bool suppressed = false;
    for (int gy = std::max(0, cy - 1); gy <= std::min(gh - 1, cy + 1) && !suppressed; ++gy) {
      for (int gx = std::max(0, cx - 1); gx <= std::min(gw - 1, cx + 1) && !suppressed; ++gx) {
        for (int k = head[static_cast<std::size_t>(gy) * gw + gx]; k >= 0;
             k = next[static_cast<std::size_t>(k)]) {
          const Feature& o = kept[static_cast<std::size_t>(k)];
          if (std::abs(o.x - f.x) <= radius && std::abs(o.y - f.y) <= radius) {
            suppressed = true;
            break;
          }
        }
      }
    }
    if (suppressed) continue;
    int& h = head[static_cast<std::size_t>(cy) * gw + cx];
    next.push_back(h);
    h = static_cast<int>(kept.size());
    kept.push_back(f);
  }
  return kept;
}

namespace {

struct BriefPattern {
  std::array<std::array<int8_t, 4>, 256> pairs;  // x1,y1,x2,y2 in [-15,15]

  BriefPattern() {
    // Fixed seed: every library user computes identical descriptors.
    sim::Rng rng(0xB21EF);
    for (auto& p : pairs) {
      for (int k = 0; k < 4; ++k) {
        double v = std::clamp(rng.normal(0.0, 6.5), -15.0, 15.0);
        p[static_cast<std::size_t>(k)] = static_cast<int8_t>(v);
      }
    }
  }
};

const BriefPattern& brief_pattern() {
  static const BriefPattern p;
  return p;
}

/// Per-frame blur scratch: extract() runs per camera frame, and the smooth
/// image was its last remaining full-frame allocation.
Image& smooth_scratch() {
  thread_local Image scratch;
  return scratch;
}

}  // namespace

DescribedFeatures brief_describe(const Image& img, const std::vector<Feature>& features) {
  Image& smooth = smooth_scratch();
  box_blur_into(img, 2, smooth);
  const auto& pat = brief_pattern();
  // Resolve the 256 tap pairs to byte offsets once per image; the inner loop
  // is then 512 loads off the feature's center pointer.
  const int stride = smooth.stride();
  std::array<int, 256> off1;
  std::array<int, 256> off2;
  for (int b = 0; b < 256; ++b) {
    const auto& p = pat.pairs[static_cast<std::size_t>(b)];
    off1[static_cast<std::size_t>(b)] = p[1] * stride + p[0];
    off2[static_cast<std::size_t>(b)] = p[3] * stride + p[2];
  }
  DescribedFeatures out;
  for (const Feature& f : features) {
    if (f.x < 16 || f.y < 16 || f.x >= img.width() - 16 || f.y >= img.height() - 16) continue;
    const std::uint8_t* center = smooth.row(f.y) + f.x;
    Descriptor d;
    // The bit is or-ed in unconditionally: a v1 < v2 branch is a coin flip
    // the predictor loses half the time.
    for (int b = 0; b < 256; ++b) {
      const std::uint8_t v1 = center[off1[static_cast<std::size_t>(b)]];
      const std::uint8_t v2 = center[off2[static_cast<std::size_t>(b)]];
      d.bits[static_cast<std::size_t>(b / 64)] |= static_cast<std::uint64_t>(v1 < v2) << (b % 64);
    }
    out.features.push_back(f);
    out.descriptors.push_back(d);
  }
  return out;
}

namespace {

constexpr int kFar = 1 << 30;  ///< distance sentinel: above any 256-bit distance

/// The reference scan: train descriptors first to last, ties to the first.
[[gnu::always_inline]] inline detail::Nearest2 scan_nearest2(
    const Descriptor& q, const std::vector<Descriptor>& train) {
  detail::Nearest2 r{kFar, kFar, -1};
  for (std::size_t ti = 0; ti < train.size(); ++ti) {
    const int d = q.hamming(train[ti]);
    if (d < r.best) {
      r.second = r.best;
      r.best = d;
      r.best_ti = static_cast<int>(ti);
    } else if (d < r.second) {
      r.second = d;
    }
  }
  return r;
}

detail::Nearest2 portable_nearest2(const Descriptor& q, const std::vector<Descriptor>& train,
                                   const std::vector<std::uint64_t>&) {
  return scan_nearest2(q, train);
}

bool always() { return true; }

#if defined(__x86_64__) && !defined(ARNET_NO_SIMD)

// Baseline x86-64 has no popcnt instruction, so std::popcount in the portable
// scan is four libgcc calls per 256-bit distance. This is the same scan built
// for hosts that have one.
__attribute__((target("popcnt"))) detail::Nearest2 popcnt_nearest2(
    const Descriptor& q, const std::vector<Descriptor>& train,
    const std::vector<std::uint64_t>&) {
  return scan_nearest2(q, train);
}

bool has_popcnt() { return __builtin_cpu_supports("popcnt"); }

/// Eight train descriptors per step, one per 64-bit lane: lane l sees
/// indices l, l + 8, l + 16, ... in order and keeps the scan's state over
/// them. A strict `<` keeps each lane's first index of its minimum, and
/// m2 = min(m2, max(m1, d)) is the scan's second-smallest update in one
/// expression (d < m1 moves m1 down to second; d >= m1, a repeat of the
/// minimum included, competes for second). Pad lanes past the train set
/// read the sentinel and change nothing. The reduction takes the smallest
/// m1, the lowest index among the lanes holding it, and as second the
/// smaller of that lane's m2 and every other lane's m1: the two smallest
/// of all distances are among the lanes' two smallest.
__attribute__((target("avx512f,avx512vpopcntdq"))) detail::Nearest2 avx512_nearest2(
    const Descriptor& q, const std::vector<Descriptor>& train,
    const std::vector<std::uint64_t>& planes) {
  const std::size_t n = train.size();
  const std::size_t padded = planes.size() / 4;
  const std::uint64_t* w0 = planes.data();
  const std::uint64_t* w1 = w0 + padded;
  const std::uint64_t* w2 = w1 + padded;
  const std::uint64_t* w3 = w2 + padded;
  const __m512i q0 = _mm512_set1_epi64(static_cast<long long>(q.bits[0]));
  const __m512i q1 = _mm512_set1_epi64(static_cast<long long>(q.bits[1]));
  const __m512i q2 = _mm512_set1_epi64(static_cast<long long>(q.bits[2]));
  const __m512i q3 = _mm512_set1_epi64(static_cast<long long>(q.bits[3]));
  const __m512i far = _mm512_set1_epi64(kFar);
  const __m512i step = _mm512_set1_epi64(8);
  __m512i m1 = far, m2 = far;
  __m512i i1 = _mm512_set1_epi64(-1);
  __m512i idx = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t b = 0; b < padded; b += 8) {
    __m512i d = _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(w0 + b), q0));
    d = _mm512_add_epi64(d, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(w1 + b), q1)));
    d = _mm512_add_epi64(d, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(w2 + b), q2)));
    d = _mm512_add_epi64(d, _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(w3 + b), q3)));
    if (n - b < 8) d = _mm512_mask_mov_epi64(far, static_cast<__mmask8>((1u << (n - b)) - 1), d);
    const __mmask8 lt = _mm512_cmplt_epi64_mask(d, m1);
    m2 = _mm512_min_epi64(m2, _mm512_max_epi64(m1, d));
    m1 = _mm512_mask_mov_epi64(m1, lt, d);
    i1 = _mm512_mask_mov_epi64(i1, lt, idx);
    idx = _mm512_add_epi64(idx, step);
  }
  alignas(64) std::int64_t lm1[8], lm2[8], li1[8];
  _mm512_store_si512(lm1, m1);
  _mm512_store_si512(lm2, m2);
  _mm512_store_si512(li1, i1);
  int c = 0;
  for (int l = 1; l < 8; ++l) {
    if (lm1[l] < lm1[c] || (lm1[l] == lm1[c] && li1[l] < li1[c])) c = l;
  }
  std::int64_t second = lm2[c];
  for (int l = 0; l < 8; ++l) {
    if (l != c) second = std::min(second, lm1[l]);
  }
  return {static_cast<int>(lm1[c]), static_cast<int>(second), static_cast<int>(li1[c])};
}

bool has_avx512_popcnt() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vpopcntdq");
}

constexpr detail::HammingKernel kKernels[] = {
    {"portable", always, false, portable_nearest2},
    {"popcnt", has_popcnt, false, popcnt_nearest2},
    {"avx512vpopcntdq", has_avx512_popcnt, true, avx512_nearest2},
};

#else

// Other ISAs (AArch64 `cnt`) and the ARNET_NO_SIMD build: the portable scan.
constexpr detail::HammingKernel kKernels[] = {
    {"portable", always, false, portable_nearest2},
};

#endif

/// The train set as four word planes, plane w holding word w of every
/// descriptor, each padded with zeros to a multiple of 8 descriptors.
void transpose_train(const std::vector<Descriptor>& train, std::vector<std::uint64_t>& planes) {
  const std::size_t padded = (train.size() + 7) / 8 * 8;
  planes.assign(4 * padded, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    for (std::size_t w = 0; w < 4; ++w) planes[w * padded + i] = train[i].bits[w];
  }
}

}  // namespace

std::span<const detail::HammingKernel> detail::hamming_kernels() { return kKernels; }

const detail::HammingKernel& detail::selected_hamming_kernel() {
  // CPUID is asked once, here, rather than through a loader ifunc: GCC's
  // target_clones cannot name avx512vpopcntdq, and an ifunc resolver runs
  // before the ThreadSanitizer runtime is up.
  static const HammingKernel& chosen = []() -> const HammingKernel& {
    const HammingKernel* k = &kKernels[0];
    for (const HammingKernel& c : kKernels) {
      if (c.host_runs()) k = &c;
    }
    return *k;
  }();
  return chosen;
}

void detail::match_descriptors_with(const HammingKernel& kernel,
                                    const std::vector<Descriptor>& query,
                                    const std::vector<Descriptor>& train,
                                    std::vector<Match>& out, MatchScratch& scratch,
                                    double max_ratio, int max_distance) {
  std::vector<Match>& forward = scratch.forward;
  forward.clear();
  scratch.best_for_train.assign(train.size(), -1);
  scratch.best_dist_train.assign(train.size(), kFar);
  if (kernel.transposed) transpose_train(train, scratch.planes);

  for (std::size_t qi = 0; qi < query.size(); ++qi) {
    const Nearest2 r = kernel.nearest2(query[qi], train, scratch.planes);
    if (r.best_ti < 0 || r.best > max_distance) continue;
    if (r.second < kFar && r.best >= max_ratio * r.second) continue;  // ambiguous
    forward.push_back({static_cast<int>(qi), r.best_ti, r.best});
    auto t = static_cast<std::size_t>(r.best_ti);
    if (r.best < scratch.best_dist_train[t]) {
      scratch.best_dist_train[t] = r.best;
      scratch.best_for_train[t] = static_cast<int>(qi);
    }
  }
  // Symmetric cross-check: keep a match only if it is also the train
  // point's best query.
  out.clear();
  for (const Match& m : forward) {
    if (scratch.best_for_train[static_cast<std::size_t>(m.train)] == m.query) out.push_back(m);
  }
}

void match_descriptors(const std::vector<Descriptor>& query,
                       const std::vector<Descriptor>& train, std::vector<Match>& out,
                       MatchScratch& scratch, double max_ratio, int max_distance) {
  detail::match_descriptors_with(detail::selected_hamming_kernel(), query, train, out, scratch,
                                 max_ratio, max_distance);
}

std::vector<Match> match_descriptors(const std::vector<Descriptor>& query,
                                     const std::vector<Descriptor>& train,
                                     double max_ratio, int max_distance) {
  std::vector<Match> out;
  MatchScratch scratch;
  match_descriptors(query, train, out, scratch, max_ratio, max_distance);
  return out;
}

}  // namespace arnet::vision
