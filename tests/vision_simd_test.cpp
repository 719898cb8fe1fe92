// Golden tests for the vectorized vision fast paths: the library's FAST and
// box-blur implementations (SIMD cardinal pre-test, separable integer blur)
// must be *bit-identical* to straightforward scalar references on seeded
// synthetic frames — including odd widths that exercise the partial-lane
// tails. The references below are deliberately naive transcriptions of the
// definitions, independent of the library's loop structure, so they pin
// whichever SIMD backend (SSE2, NEON, or the ARNET_NO_SIMD scalar fallback) a
// build picked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arnet/sim/rng.hpp"
#include "arnet/vision/features.hpp"
#include "arnet/vision/image.hpp"
#include "arnet/vision/simd.hpp"
#include "arnet/vision/synth.hpp"
#include "corners.hpp"

namespace {

using namespace arnet;
using namespace arnet::vision;

Image seeded_scene(int w, int h, std::uint64_t seed) {
  sim::Rng rng(seed);
  SceneParams p;
  p.width = w;
  p.height = h;
  Image img = render_scene(rng, p);
  add_noise(img, rng, 6.0);
  return img;
}

// ------------------------------------------------------------ references

/// Naive clamped box blur, the definition the separable SIMD pass must match.
Image ref_box_blur(const Image& src, int radius) {
  Image out(src.width(), src.height());
  const int n = (2 * radius + 1) * (2 * radius + 1);
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      int sum = 0;
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          sum += src.at_clamped(x + dx, y + dy);
        }
      }
      out.at(x, y) = static_cast<std::uint8_t>(sum / n);
    }
  }
  return out;
}

constexpr int kRefRing[16][2] = {{0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},
                                 {2, 2},  {1, 3},  {0, 3},  {-1, 3}, {-2, 2}, {-3, 1},
                                 {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

/// Reference FAST-9 score: classify all 16 ring pixels, scan the doubled
/// ring for a >= 9 run of one polarity, score = SAD over the best run.
int ref_fast_score(const Image& img, int x, int y, int threshold) {
  int center = img.at(x, y);
  int bright = center + threshold;
  int dark = center - threshold;
  int cls[16];
  int vals[16];
  for (int i = 0; i < 16; ++i) {
    vals[i] = img.at(x + kRefRing[i][0], y + kRefRing[i][1]);
    cls[i] = vals[i] > bright ? 1 : (vals[i] < dark ? -1 : 0);
  }
  for (int polarity : {1, -1}) {
    int run = 0, best_run = 0, run_score = 0, best_score = 0;
    for (int i = 0; i < 32; ++i) {
      if (cls[i % 16] == polarity) {
        ++run;
        run_score += std::abs(vals[i % 16] - center);
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

std::vector<Feature> ref_fast_detect(const Image& img, int threshold, int nms_radius) {
  std::vector<Feature> raw;
  for (int y = 3; y < img.height() - 3; ++y) {
    for (int x = 3; x < img.width() - 3; ++x) {
      int s = ref_fast_score(img, x, y, threshold);
      if (s > 0) raw.push_back({x, y, s});
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const Feature& a, const Feature& b) { return a.score > b.score; });
  std::vector<Feature> kept;
  std::vector<bool> suppressed(raw.size(), false);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (suppressed[i]) continue;
    kept.push_back(raw[i]);
    for (std::size_t j = i + 1; j < raw.size(); ++j) {
      if (suppressed[j]) continue;
      if (std::abs(raw[i].x - raw[j].x) <= nms_radius &&
          std::abs(raw[i].y - raw[j].y) <= nms_radius) {
        suppressed[j] = true;
      }
    }
  }
  return kept;
}

void expect_same_features(const std::vector<Feature>& got, const std::vector<Feature>& want,
                          const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << label << " #" << i;
    EXPECT_EQ(got[i].y, want[i].y) << label << " #" << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " #" << i;
  }
}

// ---------------------------------------------------------------- goldens

TEST(SimdGolden, FastDetectMatchesScalarReferenceAcrossSizes) {
  // 333x241 is deliberately not a multiple of 16: the last vector block of
  // each row runs with a partial valid-lane mask.
  const struct { int w, h; std::uint64_t seed; } frames[] = {
      {320, 240, 1}, {640, 480, 2}, {1280, 960, 3}, {333, 241, 4}};
  for (const auto& f : frames) {
    Image img = seeded_scene(f.w, f.h, f.seed);
    expect_same_features(fast_detect(img, 20), ref_fast_detect(img, 20, 4), "fast/t20");
    expect_same_features(fast_detect(img, 7), ref_fast_detect(img, 7, 4), "fast/t7");
  }
}

TEST(SimdGolden, FastDetectExtremeThresholds) {
  Image img = seeded_scene(160, 120, 9);
  // threshold 0: every comparison is strict, maximum candidate density.
  expect_same_features(fast_detect(img, 0), ref_fast_detect(img, 0, 4), "fast/t0");
  // threshold 255: center+255 saturates; nothing can be brighter.
  expect_same_features(fast_detect(img, 255), ref_fast_detect(img, 255, 4), "fast/t255");
  // Out-of-u8-range thresholds take the scalar full-scan path.
  expect_same_features(fast_detect(img, 300), ref_fast_detect(img, 300, 4), "fast/t300");
  expect_same_features(fast_detect(img, -5), ref_fast_detect(img, -5, 4), "fast/t-5");
}

TEST(SimdGolden, BoxBlurMatchesNaiveReference) {
  const struct { int w, h; std::uint64_t seed; } frames[] = {
      {320, 240, 11}, {333, 241, 12}, {16, 16, 13}, {17, 3, 14}, {5, 5, 15}, {1, 1, 16}};
  for (const auto& f : frames) {
    Image img = seeded_scene(f.w, f.h, f.seed);
    for (int radius : {1, 2, 3}) {  // 1 and 2 are the SIMD paths, 3 generic
      Image got = box_blur(img, radius);
      Image want = ref_box_blur(img, radius);
      ASSERT_EQ(got.width(), want.width());
      ASSERT_EQ(got.height(), want.height());
      for (int y = 0; y < got.height(); ++y) {
        for (int x = 0; x < got.width(); ++x) {
          ASSERT_EQ(got.at(x, y), want.at(x, y))
              << f.w << "x" << f.h << " r=" << radius << " at " << x << "," << y;
        }
      }
    }
  }
}

TEST(SimdGolden, BoxBlurIntoReusesScratchExactly) {
  Image img = seeded_scene(333, 97, 21);
  Image dst;  // wrong-size scratch must be resized, then reused in place
  box_blur_into(img, 2, dst);
  Image want = box_blur(img, 2);
  ASSERT_EQ(dst.width(), want.width());
  ASSERT_EQ(dst.height(), want.height());
  EXPECT_TRUE(dst.data() == want.data());
  // Second pass into the warm scratch: same result, no reallocation needed.
  box_blur_into(img, 2, dst);
  EXPECT_TRUE(dst.data() == want.data());
}

TEST(SimdGolden, DescriptorsIdenticalOnOddWidthFrames) {
  // Descriptor sampling walks raw row pointers; odd strides must not skew
  // the sample offsets. Self-consistency across an image copy catches any
  // dependence on allocation placement or stale padding.
  Image img = seeded_scene(333, 241, 41);
  Image copy = img;
  auto feats = fast_detect(img, 15);
  ASSERT_FALSE(feats.empty());
  auto a = brief_describe(img, feats);
  auto b = brief_describe(copy, feats);
  ASSERT_EQ(a.descriptors.size(), b.descriptors.size());
  for (std::size_t i = 0; i < a.descriptors.size(); ++i) {
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(a.descriptors[i].bits[static_cast<std::size_t>(w)],
                b.descriptors[i].bits[static_cast<std::size_t>(w)]);
    }
  }
}

// ------------------------------------------------------ corner internals

/// Longest run of set bits in the 16-bit ring mask, wrapping from bit 15 to
/// bit 0: the definition the arc pre-filter's shift-and folds must match.
int longest_cyclic_run(std::uint32_t m16) {
  int best = 0;
  for (int start = 0; start < 16; ++start) {
    int run = 0;
    while (run < 16 && ((m16 >> ((start + run) % 16)) & 1u) != 0) ++run;
    best = std::max(best, run);
  }
  return best;
}

TEST(FastArc, PreFilterMatchesCyclicRunCountOnEveryRingMask) {
  int arcs = 0;
  for (std::uint32_t m = 0; m < (1u << 16); ++m) {
    const bool want = longest_cyclic_run(m) >= 9;
    ASSERT_EQ(detail::has_arc9(m), want) << "mask 0x" << std::hex << m;
    arcs += want ? 1 : 0;
  }
  // Both outcomes occur, so neither side of the comparison is vacuous.
  EXPECT_GT(arcs, 0);
  EXPECT_LT(arcs, 1 << 16);
}

/// The all-pairs greedy NMS the grid version replaces: the same sort on the
/// same input, then every kept feature suppresses each later one within
/// `radius` in both axes.
std::vector<Feature> naive_greedy_nms(std::vector<Feature> raw, int radius) {
  std::sort(raw.begin(), raw.end(),
            [](const Feature& a, const Feature& b) { return a.score > b.score; });
  std::vector<Feature> kept;
  std::vector<bool> suppressed(raw.size(), false);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (suppressed[i]) continue;
    kept.push_back(raw[i]);
    for (std::size_t j = i + 1; j < raw.size(); ++j) {
      if (!suppressed[j] && std::abs(raw[i].x - raw[j].x) <= radius &&
          std::abs(raw[i].y - raw[j].y) <= radius) {
        suppressed[j] = true;
      }
    }
  }
  return kept;
}

TEST(Nms, GridMatchesNaiveGreedyOnTiesAndCellBorders) {
  sim::Rng rng(91);
  for (int radius : {-1, 0, 1, 4, 9}) {
    const int cell = std::max(1, radius + 1);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<Feature> raw;
      const int n = static_cast<int>(rng.uniform_int(0, 300));
      for (int i = 0; i < n; ++i) {
        Feature f;
        // Scores from a handful of values: most comparisons are ties, so
        // the kept set depends on the sort's order of equal scores.
        f.score = static_cast<int>(rng.uniform_int(1, 4));
        switch (rng.uniform_int(0, 2)) {
          case 0:  // anywhere in a small frame (duplicates included)
            f.x = static_cast<int>(rng.uniform_int(0, 60));
            f.y = static_cast<int>(rng.uniform_int(0, 45));
            break;
          case 1:  // on or next to a border of cells anchored at 0
            f.x = cell * static_cast<int>(rng.uniform_int(0, 8)) +
                  static_cast<int>(rng.uniform_int(-1, 1));
            f.y = cell * static_cast<int>(rng.uniform_int(0, 8)) +
                  static_cast<int>(rng.uniform_int(-1, 1));
            break;
          default:  // exactly radius or radius + 1 from an earlier feature
            if (raw.empty()) continue;
            const Feature& o = raw[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(raw.size()) - 1))];
            const int steps[] = {-radius - 1, -radius, 0, radius, radius + 1};
            f.x = o.x + steps[rng.uniform_int(0, 4)];
            f.y = o.y + steps[rng.uniform_int(0, 4)];
            break;
        }
        raw.push_back(f);
      }
      expect_same_features(detail::greedy_nms(raw, radius), naive_greedy_nms(raw, radius),
                           "nms");
    }
  }
}

// ------------------------------------------------------ wrapper semantics

TEST(SimdWrapper, ByteOpsMatchScalarSemantics) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint8_t a[16], b[16];
    for (int i = 0; i < 16; ++i) {
      a[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      b[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const simd::U8x16 va = simd::U8x16::load(a);
    const simd::U8x16 vb = simd::U8x16::load(b);
    std::uint8_t out[16];
    simd::adds(va, vb).store(out);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], std::min(a[i] + b[i], 255));
    simd::subs(va, vb).store(out);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], std::max(a[i] - b[i], 0));
    simd::gt(va, vb).store(out);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], a[i] > b[i] ? 0xFF : 0x00);
    const std::uint32_t m = simd::movemask(simd::gt(va, vb));
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ((m >> i) & 1u, a[i] > b[i] ? 1u : 0u);
    }
  }
}

TEST(SimdWrapper, WordOpsMatchScalarSemantics) {
  sim::Rng rng(78);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint16_t a[8], b[8];
    for (int i = 0; i < 8; ++i) {
      a[i] = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      b[i] = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    }
    const simd::U16x8 va = simd::U16x8::load(a);
    const simd::U16x8 vb = simd::U16x8::load(b);
    std::uint16_t out[8];
    simd::add(va, vb).store(out);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], static_cast<std::uint16_t>(a[i] + b[i]));
    simd::mulhi(va, vb).store(out);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], static_cast<std::uint16_t>(
                            (static_cast<std::uint32_t>(a[i]) * b[i]) >> 16));
    }
    simd::shr<3>(va).store(out);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], a[i] >> 3);
  }
}

TEST(SimdWrapper, WidenPackRoundTrip) {
  std::uint8_t a[16];
  for (int i = 0; i < 16; ++i) a[i] = static_cast<std::uint8_t>(i * 16 + 3);
  const simd::U8x16 v = simd::U8x16::load(a);
  std::uint8_t out[16];
  simd::pack(simd::widen_lo(v), simd::widen_hi(v)).store(out);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], a[i]);
}

TEST(SimdWrapper, MagicDivisorsExactOverReachableRange) {
  // /9 via mulhi(v, 7282): exact for every v a radius-1 blur can produce
  // (9 * 255 = 2295). /25 via mulhi(v, 5243) >> 1: exact for every v a
  // radius-2 blur can produce (25 * 255 = 6375); verified far beyond, to the
  // first value where the naive (v * 2622) >> 16 form would already fail.
  for (std::uint32_t v = 0; v <= 2295; ++v) {
    const std::uint16_t q = static_cast<std::uint16_t>((v * 7282u) >> 16);
    ASSERT_EQ(q, v / 9) << v;
  }
  for (std::uint32_t v = 0; v <= 43674; ++v) {
    const std::uint16_t q = static_cast<std::uint16_t>(((v * 5243u) >> 16) >> 1);
    ASSERT_EQ(q, v / 25) << v;
  }
}

TEST(SimdWrapper, BackendNameIsDeclared) {
#if defined(ARNET_NO_SIMD)
  EXPECT_STREQ(simd::kBackendName, "scalar");
#else
  EXPECT_TRUE(simd::kBackendName != nullptr);
#endif
}

// --------------------------------------------------------- image layout

TEST(ImageLayout, StrideIsPaddedTo16AndDeterministic) {
  Image img(333, 3, 7);
  EXPECT_GE(img.stride(), img.width());
  EXPECT_EQ(img.stride() % 16, 0);
  // Padding bytes are part of the deterministic fill: two same-shape images
  // with identical pixels compare equal through data() (vision_test relies
  // on that for warp round-trips).
  Image other(333, 3, 7);
  EXPECT_TRUE(img.data() == other.data());
}

}  // namespace
