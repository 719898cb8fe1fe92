#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "arnet/sim/rng.hpp"
#include "arnet/vision/features.hpp"
#include "arnet/vision/geometry.hpp"
#include "arnet/vision/homography.hpp"
#include "arnet/vision/image.hpp"
#include "arnet/vision/pipeline.hpp"
#include "arnet/vision/privacy.hpp"
#include "arnet/vision/synth.hpp"
#include "golden.hpp"
#include "hamming.hpp"

namespace arnet::vision {
namespace {

TEST(Image, ClampedAndBilinearAccess) {
  Image img(4, 4);
  img.at(0, 0) = 10;
  img.at(3, 3) = 200;
  EXPECT_EQ(img.at_clamped(-5, -5), 10);
  EXPECT_EQ(img.at_clamped(10, 10), 200);
  img.at(1, 1) = 100;
  img.at(2, 1) = 200;
  EXPECT_NEAR(img.bilinear(1.5, 1.0), 150.0, 1e-9);
}

TEST(Mat3, InverseRoundTrips) {
  Mat3 h = Mat3::similarity(1.3, 0.4, 10, -5);
  h(2, 0) = 1e-4;
  Mat3 id = h * h.inverse();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(id(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Mat3, ApplyTranslation) {
  Mat3 t = Mat3::translation(5, -3);
  Vec2 p = t.apply({1, 1});
  EXPECT_DOUBLE_EQ(p.x, 6);
  EXPECT_DOUBLE_EQ(p.y, -2);
}

TEST(Jacobi, FindsNullVectorOfSingularMatrix) {
  // A = v v^T for v = (1,2,3): eigenvector for eigenvalue 0 must be
  // orthogonal to v.
  std::array<std::array<double, 3>, 3> a{};
  double v[3] = {1, 2, 3};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) a[i][j] = v[i] * v[j];
  }
  auto e = smallest_eigenvector<3>(a);
  double dot = e[0] * 1 + e[1] * 2 + e[2] * 3;
  EXPECT_NEAR(dot, 0.0, 1e-9);
  double norm = e[0] * e[0] + e[1] * e[1] + e[2] * e[2];
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(Synth, SceneIsDeterministicPerSeed) {
  sim::Rng a(5), b(5), c(6);
  SceneParams p;
  Image ia = render_scene(a, p);
  Image ib = render_scene(b, p);
  Image ic = render_scene(c, p);
  EXPECT_EQ(ia.data(), ib.data());
  EXPECT_NE(ia.data(), ic.data());
}

/// Replays render_scene's RNG draws (gradient, then per shape: shade, kind,
/// center, size) and reports which image borders some disc crosses, so the
/// render goldens below are known to cover clipped discs on every side.
struct DiscClips {
  bool left = false, right = false, top = false, bottom = false;
};

DiscClips replay_disc_clips(std::uint64_t seed, const SceneParams& p) {
  sim::Rng rng(seed);
  rng.uniform(-0.3, 0.3);
  rng.uniform(-0.3, 0.3);
  rng.uniform(60.0, 160.0);
  DiscClips c;
  for (int s = 0; s < p.shapes; ++s) {
    rng.uniform_int(0, 255);
    const bool disc = rng.bernoulli(0.4);
    const auto cx = rng.uniform_int(0, p.width - 1);
    const auto cy = rng.uniform_int(0, p.height - 1);
    if (disc) {
      const auto r = rng.uniform_int(6, std::max<std::int64_t>(6, p.width / 8));
      c.left |= cx - r < 0;
      c.right |= cx + r > p.width;
      c.top |= cy - r < 0;
      c.bottom |= cy + r > p.height;
    } else {
      rng.uniform_int(8, std::max<std::int64_t>(8, p.width / 5));
      rng.uniform_int(8, std::max<std::int64_t>(8, p.height / 5));
    }
  }
  return c;
}

/// FNV-1a over the pixel rows (not the stride padding), then over the
/// scene RNG's next draw, so a render that consumes a different number of
/// draws changes the digest too.
std::uint64_t scene_digest(const Image& img, sim::Rng& rng) {
  std::uint64_t h = golden::kFnvBasis;
  h = golden::fnv1a_word(h, static_cast<std::uint64_t>(img.width()));
  h = golden::fnv1a_word(h, static_cast<std::uint64_t>(img.height()));
  for (int y = 0; y < img.height(); ++y) {
    h = golden::fnv1a(h, {reinterpret_cast<const char*>(img.row(y)),
                          static_cast<std::size_t>(img.width())});
  }
  return golden::fnv1a_word(h, rng.next_u64());
}

// Pins render_scene and render_scene_with_sensitive pixel for pixel: VGA and
// QVGA frames, an odd size whose rows do not fill their stride, and a 40x30
// frame where the disc radius and rectangle size clamps bite; noise on and
// off; discs clipped at all four borders in every case.
TEST(Synth, RenderSceneGoldens) {
  struct Case {
    const char* label;
    std::uint64_t seed;
    SceneParams p;
    int faces, plates;  // > 0: render_scene_with_sensitive
  };
  const Case cases[] = {
      {"vga", 101, {640, 480, 96, 0.0}, 0, 0},
      {"vga/noise", 102, {640, 480, 96, 3.0}, 0, 0},
      {"qvga", 303, {320, 240, 60, 0.0}, 0, 0},
      {"qvga/noise", 4, {320, 240, 60, 6.0}, 0, 0},
      {"odd", 105, {333, 241, 60, 0.0}, 0, 0},
      {"odd/noise", 6, {333, 241, 60, 2.5}, 0, 0},
      {"tiny", 7, {40, 30, 40, 0.0}, 0, 0},
      {"tiny/noise", 108, {40, 30, 40, 4.0}, 0, 0},
      {"sensitive/qvga", 9, {320, 240, 60, 0.0}, 3, 2},
      {"sensitive/vga/noise", 210, {640, 480, 96, 3.0}, 4, 3},
      {"sensitive/odd", 11, {333, 241, 60, 0.0}, 2, 2},
  };
  std::vector<std::string> got;
  for (const Case& c : cases) {
    const DiscClips clips = replay_disc_clips(c.seed, c.p);
    EXPECT_TRUE(clips.left && clips.right && clips.top && clips.bottom) << c.label;
    sim::Rng rng(c.seed);
    golden::Row row;
    row.s(c.label);
    if (c.faces > 0) {
      std::vector<SensitiveRegion> truth;
      const Image img = render_scene_with_sensitive(rng, c.p, c.faces, c.plates, truth);
      row.x(scene_digest(img, rng));
      for (const SensitiveRegion& r : truth) row.i(r.x).i(r.y).i(r.w).i(r.h);
    } else {
      const Image img = render_scene(rng, c.p);
      row.x(scene_digest(img, rng));
    }
    got.push_back(row.str());
  }
  const std::vector<std::string> want = {
      "vga dc97c53db681b1ae",
      "vga/noise 32900b24d7eb4990",
      "qvga 5ce97d122ce8df1c",
      "qvga/noise a6aae1b9117c34d4",
      "odd 196b1acadf6a7569",
      "odd/noise d78916e8c1eb4641",
      "tiny e81a0dc18fa6c31e",
      "tiny/noise c49afd0d4b2c4cb8",
      "sensitive/qvga 80e11da4512e3dc3 100 216 24 19 225 24 18 14 140 113 20 16 99 84 35 9 "
      "27 131 26 9",
      "sensitive/vga/noise e8696d805a7fcfb9 542 161 14 11 534 60 16 12 92 166 20 16 372 336 "
      "16 12 388 161 30 8 331 225 38 9 316 200 25 10",
      "sensitive/odd 8dbf624a72e47a23 160 164 22 17 20 160 14 11 170 101 31 8 151 68 27 7",
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(Synth, WarpByTranslationShiftsContent) {
  sim::Rng rng(5);
  Image img = render_scene(rng, SceneParams{});
  Image shifted = warp_image(img, Mat3::translation(7, 0));
  int agree = 0, total = 0;
  for (int y = 20; y < img.height() - 20; ++y) {
    for (int x = 20; x < img.width() - 20; ++x) {
      ++total;
      if (std::abs(int(shifted.at(x, y)) - int(img.at(x - 7, y))) <= 1) ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.99);
}

TEST(Fast, DetectsSyntheticCorner) {
  // Bright square on dark background: corners at the 4 square corners.
  Image img(64, 64, 20);
  for (int y = 20; y < 44; ++y) {
    for (int x = 20; x < 44; ++x) img.at(x, y) = 220;
  }
  auto feats = fast_detect(img, 20);
  ASSERT_GE(feats.size(), 4u);
  // Every detection should be near one of the four square corners.
  for (const auto& f : feats) {
    double d1 = std::hypot(f.x - 20.0, f.y - 20.0);
    double d2 = std::hypot(f.x - 43.0, f.y - 20.0);
    double d3 = std::hypot(f.x - 20.0, f.y - 43.0);
    double d4 = std::hypot(f.x - 43.0, f.y - 43.0);
    EXPECT_LT(std::min(std::min(d1, d2), std::min(d3, d4)), 4.0)
        << "stray corner at " << f.x << "," << f.y;
  }
}

TEST(Fast, FlatImageHasNoCorners) {
  Image img(64, 64, 128);
  EXPECT_TRUE(fast_detect(img, 20).empty());
}

TEST(Fast, NmsLimitsDensity) {
  sim::Rng rng(9);
  Image img = render_scene(rng, SceneParams{});
  auto feats = fast_detect(img, 20, /*nms_radius=*/6);
  for (std::size_t i = 0; i < feats.size(); ++i) {
    for (std::size_t j = i + 1; j < feats.size(); ++j) {
      bool close = std::abs(feats[i].x - feats[j].x) <= 6 &&
                   std::abs(feats[i].y - feats[j].y) <= 6;
      EXPECT_FALSE(close);
    }
  }
}

TEST(Fast, SceneProducesUsableFeatureCount) {
  sim::Rng rng(11);
  Image img = render_scene(rng, SceneParams{});
  auto feats = fast_detect(img, 20);
  EXPECT_GT(feats.size(), 30u);
  EXPECT_LT(feats.size(), 2000u);
}

TEST(Brief, DescriptorStableUnderNoise) {
  sim::Rng rng(13);
  Image img = render_scene(rng, SceneParams{});
  auto feats = fast_detect(img, 20);
  auto clean = brief_describe(img, feats);
  Image noisy = img;
  sim::Rng nrng(99);
  add_noise(noisy, nrng, 4.0);
  auto dirty = brief_describe(noisy, feats);
  ASSERT_EQ(clean.descriptors.size(), dirty.descriptors.size());
  ASSERT_GT(clean.descriptors.size(), 10u);
  double mean_dist = 0;
  for (std::size_t i = 0; i < clean.descriptors.size(); ++i) {
    mean_dist += clean.descriptors[i].hamming(dirty.descriptors[i]);
  }
  mean_dist /= static_cast<double>(clean.descriptors.size());
  // Same point under mild noise: far below the ~128 expected for random
  // descriptors.
  EXPECT_LT(mean_dist, 40.0);
}

TEST(Brief, DifferentPointsAreFar) {
  sim::Rng rng(13);
  Image img = render_scene(rng, SceneParams{});
  auto d = brief_describe(img, fast_detect(img, 20));
  ASSERT_GT(d.descriptors.size(), 10u);
  double mean = 0;
  int n = 0;
  for (std::size_t i = 0; i + 1 < d.descriptors.size() && n < 200; i += 2, ++n) {
    mean += d.descriptors[i].hamming(d.descriptors[i + 1]);
  }
  mean /= n;
  EXPECT_GT(mean, 60.0);
}

TEST(Match, FindsCorrespondencesUnderTranslation) {
  sim::Rng rng(17);
  Image img = render_scene(rng, SceneParams{});
  Mat3 t = Mat3::translation(9, 4);
  Image moved = warp_image(img, t);
  auto a = brief_describe(img, fast_detect(img, 20));
  auto b = brief_describe(moved, fast_detect(moved, 20));
  auto matches = match_descriptors(a.descriptors, b.descriptors);
  ASSERT_GT(matches.size(), 15u);
  int correct = 0;
  for (const auto& m : matches) {
    const auto& fa = a.features[static_cast<std::size_t>(m.query)];
    const auto& fb = b.features[static_cast<std::size_t>(m.train)];
    if (std::abs(fb.x - fa.x - 9) <= 2 && std::abs(fb.y - fa.y - 4) <= 2) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / matches.size(), 0.8);
}

/// The matcher as it stood before its hardware-popcount build: per-word
/// `__builtin_popcountll`, fresh per-train arrays on every call. Kept only
/// as the reference `match_descriptors` must agree with, Match for Match.
std::vector<Match> naive_match(const std::vector<Descriptor>& query,
                               const std::vector<Descriptor>& train, double max_ratio = 0.8,
                               int max_distance = 64) {
  auto hamming = [](const Descriptor& a, const Descriptor& b) {
    int d = 0;
    for (int i = 0; i < 4; ++i) d += __builtin_popcountll(a.bits[i] ^ b.bits[i]);
    return d;
  };
  std::vector<Match> forward;
  std::vector<int> best_for_train(train.size(), -1);
  std::vector<int> best_dist_train(train.size(), 1 << 30);
  for (std::size_t qi = 0; qi < query.size(); ++qi) {
    int best = 1 << 30, second = 1 << 30, best_ti = -1;
    for (std::size_t ti = 0; ti < train.size(); ++ti) {
      int d = hamming(query[qi], train[ti]);
      if (d < best) {
        second = best;
        best = d;
        best_ti = static_cast<int>(ti);
      } else if (d < second) {
        second = d;
      }
    }
    if (best_ti < 0 || best > max_distance) continue;
    if (second < (1 << 30) && best >= max_ratio * second) continue;
    forward.push_back({static_cast<int>(qi), best_ti, best});
    auto t = static_cast<std::size_t>(best_ti);
    if (best < best_dist_train[t]) {
      best_dist_train[t] = best;
      best_for_train[t] = static_cast<int>(qi);
    }
  }
  std::vector<Match> out;
  for (const Match& m : forward) {
    if (best_for_train[static_cast<std::size_t>(m.train)] == m.query) out.push_back(m);
  }
  return out;
}

/// A descriptor with exactly the lowest `k` of its 256 bits set.
Descriptor low_bits(int k) {
  Descriptor d;
  for (int b = 0; b < k; ++b) d.bits[static_cast<std::size_t>(b / 64)] |= 1ULL << (b % 64);
  return d;
}

std::vector<Descriptor> random_descriptors(sim::Rng& rng, int n) {
  std::vector<Descriptor> out(static_cast<std::size_t>(n));
  for (Descriptor& d : out) {
    for (auto& w : d.bits) w = rng.next_u64();
  }
  return out;
}

/// Checks both entry points, and every Hamming kernel this host runs,
/// against the reference. The scratch-reusing calls keep their buffers
/// across every case of a test and every kernel, as the pipeline does across
/// database objects, so stale per-train state would show.
struct SameMatches {
  MatchScratch scratch;
  std::vector<Match> reused;
  std::vector<std::string> kernels_run;

  void operator()(const std::vector<Descriptor>& q, const std::vector<Descriptor>& t,
                  const std::string& label, double max_ratio = 0.8) {
    const auto want = naive_match(q, t, max_ratio);
    auto expect_same = [&](const std::vector<Match>& got, const std::string& how) {
      ASSERT_EQ(got.size(), want.size()) << label << " (" << how << ")";
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].query, want[i].query) << label << " (" << how << ") #" << i;
        EXPECT_EQ(got[i].train, want[i].train) << label << " (" << how << ") #" << i;
        EXPECT_EQ(got[i].distance, want[i].distance) << label << " (" << how << ") #" << i;
      }
    };
    expect_same(match_descriptors(q, t, max_ratio), "selected kernel");
    match_descriptors(q, t, reused, scratch, max_ratio);
    expect_same(reused, "selected kernel, reused scratch");
    for (const detail::HammingKernel& k : detail::hamming_kernels()) {
      if (!k.host_runs()) continue;
      detail::match_descriptors_with(k, q, t, reused, scratch, max_ratio, 64);
      expect_same(reused, k.name);
      if (std::find(kernels_run.begin(), kernels_run.end(), k.name) == kernels_run.end()) {
        kernels_run.emplace_back(k.name);
      }
    }
  }
};

/// A descriptor with `k` bits set from bit `first` on (mod 256): distance k
/// from the zero descriptor, and distinct for distinct `first`.
Descriptor bits_from(int first, int k) {
  Descriptor d;
  for (int b = first; b < first + k; ++b) {
    d.bits[static_cast<std::size_t>(b % 256 / 64)] |= 1ULL << (b % 64);
  }
  return d;
}

TEST(Match, AgreesWithNaiveReference) {
  SameMatches expect_same_matches;
  sim::Rng rng(71);
  // Seeded random sets, plus near-copies so some pairs pass the gates.
  for (int trial = 0; trial < 6; ++trial) {
    auto train = random_descriptors(rng, 40 + 37 * trial);
    auto query = random_descriptors(rng, 30 + 23 * trial);
    for (std::size_t i = 0; i < query.size() && i < train.size(); i += 2) {
      query[i] = train[i];
      for (int flip = 0; flip < 4 * trial; ++flip) {
        const auto bit = static_cast<std::size_t>(rng.uniform_int(0, 255));
        query[i].bits[bit / 64] ^= 1ULL << (bit % 64);
      }
    }
    expect_same_matches(query, train, "random");
    expect_same_matches(train, query, "random, swapped");
  }

  // Duplicate train descriptors: the first index wins ties, and several
  // queries landing on one train point leave only its best (first) query.
  // A tie fails the default ratio test, so a ratio above 1 lets it through.
  {
    auto train = random_descriptors(rng, 12);
    train.push_back(train[3]);
    train.insert(train.begin(), train[7]);
    Descriptor near = train[4];  // one bit off the duplicated pair 4 and 13
    near.bits[2] ^= 1;
    std::vector<Descriptor> query = {train[0], near, train[4], near, low_bits(5)};
    expect_same_matches(query, train, "duplicate train");
    expect_same_matches(query, train, "duplicate train, no ratio test", 2.0);
    std::vector<Descriptor> unique_train = {low_bits(0), low_bits(100), low_bits(200)};
    std::vector<Descriptor> repeat_query = {low_bits(3), low_bits(2), low_bits(2), low_bits(90)};
    expect_same_matches(repeat_query, unique_train, "cross-check ties");
    const auto tie = match_descriptors({near}, train, 2.0);
    ASSERT_EQ(tie.size(), 1u);
    EXPECT_EQ(tie[0].train, 4);
  }

  // A single train descriptor: the second-best distance stays at its
  // 1 << 30 sentinel, so only the max_distance gate applies.
  {
    std::vector<Descriptor> train = {low_bits(10)};
    std::vector<Descriptor> query = {low_bits(10), low_bits(74), low_bits(75), low_bits(200)};
    expect_same_matches(query, train, "single train");
  }

  // Empty sets.
  {
    auto some = random_descriptors(rng, 5);
    expect_same_matches({}, some, "empty query");
    expect_same_matches(some, {}, "empty train");
    expect_same_matches({}, {}, "both empty");
  }

  // Gate edges: best == max_distance (64) is accepted and 65 is not; the
  // ratio test rejects best == 0.8 * second exactly (40 vs 50, 64 vs 80).
  {
    const Descriptor zero = low_bits(0);
    for (const auto& [best, second] : std::vector<std::pair<int, int>>{
             {64, 81}, {64, 80}, {65, 100}, {40, 50}, {40, 51}, {0, 0}, {0, 1}}) {
      std::vector<Descriptor> train = {low_bits(best), low_bits(second)};
      if (best == second) train[1] = train[0];
      expect_same_matches({zero}, train, "gate edge");
    }
    const auto edge = match_descriptors({zero}, {low_bits(64), low_bits(81)});
    ASSERT_EQ(edge.size(), 1u);
    EXPECT_EQ(edge[0].distance, 64);
    EXPECT_TRUE(match_descriptors({zero}, {low_bits(40), low_bits(50)}).empty());
    EXPECT_TRUE(match_descriptors({zero}, {low_bits(65), low_bits(200)}).empty());
  }

  // Train sizes around the vector kernel's 8-descriptor steps, up to a
  // frame's worth: queries are near-copies of some train points plus noise.
  for (int n : {0, 1, 7, 8, 9, 16, 17, 292}) {
    auto train = random_descriptors(rng, n);
    auto query = random_descriptors(rng, 12);
    for (int i = 0; i < n && i < 24; i += 3) {
      Descriptor near = train[static_cast<std::size_t>(i)];
      for (int flip = 0; flip < i % 7; ++flip) {
        const auto bit = static_cast<std::size_t>(rng.uniform_int(0, 255));
        near.bits[bit / 64] ^= 1ULL << (bit % 64);
      }
      query.push_back(near);
    }
    const std::string label = "train size " + std::to_string(n);
    expect_same_matches(query, train, label);
    expect_same_matches(query, train, label + ", no ratio test", 2.0);
  }

  // Nearest and second nearest placed in the same lane (8 or 16 apart) or
  // in different lanes (1, 7 or 9 apart), tied or 1 or 8 bits apart, in
  // either order, over far random filler. Ties must go to the lower index
  // and a tie must count as the second distance.
  for (int gap : {1, 7, 8, 9, 16}) {
    for (int first : {0, 3, 7, 8, 13}) {
      for (int delta : {0, 1, 8, -1, -8}) {
        auto train = random_descriptors(rng, 33);
        const int d = 20;
        train[static_cast<std::size_t>(first)] = bits_from(first * 7, d);
        train[static_cast<std::size_t>(first + gap)] = bits_from(first * 7 + 100, d + delta);
        const std::vector<Descriptor> query = {low_bits(0), bits_from(first * 7, 1),
                                               bits_from(first * 7 + 100, 2)};
        const std::string label = "gap " + std::to_string(gap) + ", first " +
                                  std::to_string(first) + ", delta " + std::to_string(delta);
        expect_same_matches(query, train, label);
        expect_same_matches(query, train, label + ", no ratio test", 2.0);
        // The zero query alone: in the set above, the cross-check can hand
        // both tied train points to the other, nearer queries.
        expect_same_matches({query[0]}, train, label + ", one query, no ratio test", 2.0);
      }
    }
  }

  // A train set of one descriptor repeated: every distance ties.
  for (int n : {9, 17, 292}) {
    const Descriptor one = random_descriptors(rng, 1)[0];
    const std::vector<Descriptor> train(static_cast<std::size_t>(n), one);
    Descriptor near = one;
    near.bits[1] ^= 1ULL << 7;
    const std::vector<Descriptor> query = {near, one, random_descriptors(rng, 1)[0], one};
    const std::string label = "identical train of " + std::to_string(n);
    expect_same_matches(query, train, label);
    expect_same_matches(query, train, label + ", no ratio test", 2.0);
  }

  std::string ran;
  for (const std::string& k : expect_same_matches.kernels_run) ran += " " + k;
  std::printf("[ kernels  ] ran:%s; selected: %s\n", ran.c_str(),
              detail::selected_hamming_kernel().name);
  EXPECT_FALSE(expect_same_matches.kernels_run.empty());
}

TEST(Dlt, RecoversExactHomographyFromCleanPoints) {
  Mat3 truth = Mat3::similarity(1.1, 0.2, 15, -8);
  truth(2, 0) = 2e-4;
  std::vector<Correspondence> pts;
  for (int i = 0; i < 12; ++i) {
    Vec2 p{20.0 + 25 * (i % 4), 15.0 + 30 * (i / 4)};
    pts.push_back({p, truth.apply(p)});
  }
  auto h = estimate_homography_dlt(pts);
  ASSERT_TRUE(h);
  for (int i = 0; i < 50; ++i) {
    Vec2 p{double(7 * i % 100), double(11 * i % 80)};
    EXPECT_LT(distance(h->apply(p), truth.apply(p)), 0.01);
  }
}

TEST(Dlt, RejectsDegenerateInput) {
  // All points collinear.
  std::vector<Correspondence> pts;
  for (int i = 0; i < 8; ++i) {
    Vec2 p{static_cast<double>(i), static_cast<double>(2 * i)};
    pts.push_back({p, p});
  }
  auto h = estimate_homography_dlt(pts);
  if (h) {
    // If numerically something came back, it must not be wildly confident:
    // mapping a non-collinear probe should not be trusted. Accept either
    // nullopt or a result; the RANSAC layer guards with inlier counts.
    SUCCEED();
  }
  EXPECT_FALSE(estimate_homography_dlt({}).has_value());
}

TEST(Ransac, SurvivesOutliers) {
  sim::Rng rng(23);
  Mat3 truth = Mat3::similarity(0.95, -0.15, -12, 6);
  std::vector<Correspondence> pts;
  for (int i = 0; i < 60; ++i) {
    Vec2 p{rng.uniform(0, 300), rng.uniform(0, 200)};
    pts.push_back({p, truth.apply(p)});
  }
  for (int i = 0; i < 40; ++i) {  // 40% outliers
    pts.push_back({{rng.uniform(0, 300), rng.uniform(0, 200)},
                   {rng.uniform(0, 300), rng.uniform(0, 200)}});
  }
  auto r = estimate_homography_ransac(pts, rng);
  ASSERT_TRUE(r);
  EXPECT_GE(static_cast<int>(r->inliers.size()), 55);
  Vec2 probe{150, 100};
  EXPECT_LT(distance(r->h.apply(probe), truth.apply(probe)), 1.0);
}

TEST(Ransac, FailsCleanlyOnPureNoise) {
  sim::Rng rng(29);
  std::vector<Correspondence> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({{rng.uniform(0, 300), rng.uniform(0, 200)},
                   {rng.uniform(0, 300), rng.uniform(0, 200)}});
  }
  RansacParams params;
  params.min_inliers = 12;
  auto r = estimate_homography_ransac(pts, rng, params);
  EXPECT_FALSE(r.has_value());
}

/// The consensus scan as written before the box pre-reject: one hypot per
/// point. `homography_inliers` must return exactly these indices.
std::vector<int> hypot_inliers(const Mat3& h, const std::vector<Correspondence>& pts,
                               double thr) {
  std::vector<int> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (distance(h.apply(pts[i].src), pts[i].dst) < thr) out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST(Ransac, InlierPreRejectMatchesHypotScan) {
  constexpr double kThr = 3.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double under = std::nextafter(kThr, 0.0);
  const double diag = kThr / std::sqrt(2.0);  // |dx| = |dy|, hypot ~ thr
  // Residuals (dx, dy) placed exactly: the identity maps the origin to
  // itself, so dst = -residual gives mapped - dst = residual bit for bit.
  const std::vector<Vec2> residuals = {
      {0, 0},          {kThr, 0},      {0, kThr},        {-kThr, 0},     {under, 0},
      {0, -under},     {under, 0.5},   {under, under},   {2.5, 2.5},     {2.1, 2.1},
      {diag, diag},    {std::nextafter(diag, 0.0), std::nextafter(diag, 0.0)},
      {std::nextafter(diag, 9.0), diag},                 {nan, 0},       {0, nan},
      {inf, 0},        {-inf, nan},    {nan, nan},       {1e300, 1e300}, {1e-300, -1e-300},
  };
  std::vector<Correspondence> pts;
  for (const Vec2& r : residuals) pts.push_back({{0, 0}, {-r.x, -r.y}});
  std::vector<int> got;
  homography_inliers(Mat3::identity(), pts, kThr, got);
  EXPECT_EQ(got, hypot_inliers(Mat3::identity(), pts, kThr));
  // Exactly at the threshold on an axis is out; just under it is in; a box
  // hit with hypot over the threshold (indices 6-8) is out; so is every
  // NaN and infinity. The three near-diagonal points go by their hypot.
  std::vector<int> want = {0, 4, 5, 9};
  for (int i : {10, 11, 12}) {
    const Vec2& r = residuals[static_cast<std::size_t>(i)];
    if (std::hypot(r.x, r.y) < kThr) want.push_back(i);
  }
  want.push_back(19);
  EXPECT_EQ(got, want);

  // Maps that send points to NaN or infinity: a NaN entry, an infinite
  // entry, and a projective row whose w vanishes at x = 10 (apply() clamps
  // it to 1e-12, sending the point far away).
  std::vector<Correspondence> spread;
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    const Vec2 src{static_cast<double>(i), 20.0};
    spread.push_back({src, {src.x - residuals[i].x, src.y - residuals[i].y}});
  }
  Mat3 nan_map;
  nan_map.m[2] = nan;
  Mat3 inf_map;
  inf_map.m[5] = inf;
  Mat3 horizon;
  horizon.m = {1, 0, 0, 0, 1, 0, 1, 0, -10};
  for (const Mat3& h : {Mat3::identity(), nan_map, inf_map, horizon}) {
    homography_inliers(h, spread, kThr, got);
    EXPECT_EQ(got, hypot_inliers(h, spread, kThr));
  }

  // Seeded near-threshold sweep: small projective maps and residuals
  // spread around the threshold on both axes.
  sim::Rng rng(89);
  for (int trial = 0; trial < 200; ++trial) {
    Mat3 h = Mat3::similarity(rng.uniform(0.8, 1.2), rng.uniform(-0.5, 0.5),
                              rng.uniform(-20, 20), rng.uniform(-20, 20));
    h(2, 0) = rng.uniform(-1e-3, 1e-3);
    h(2, 1) = rng.uniform(-1e-3, 1e-3);
    std::vector<Correspondence> sweep;
    for (int i = 0; i < 40; ++i) {
      const Vec2 src{rng.uniform(0, 320), rng.uniform(0, 240)};
      const Vec2 mapped = h.apply(src);
      sweep.push_back({src, {mapped.x + rng.uniform(-4, 4), mapped.y + rng.uniform(-4, 4)}});
    }
    const double thr = rng.uniform(0.5, 4.0);
    homography_inliers(h, sweep, thr, got);
    ASSERT_EQ(got, hypot_inliers(h, sweep, thr)) << "trial " << trial;
  }

  // The band in which `dx² + dy²` alone does not decide and hypot is
  // called: thr²·(1 ∓ 1e-9), spelled as homography_inliers spells it. For
  // each band edge and for thr² itself, the residuals whose squared sum is
  // the last one below and the first one at or above it, found by walking dx
  // one ulp at a time, on an axis and off it.
  for (const double thr : {3.0, 0.7, 1.0, 2.5}) {
    const double thr2 = thr * thr;
    std::vector<Correspondence> edge_pts;
    for (const double edge : {thr2 * (1 - 1e-9), thr2, thr2 * (1 + 1e-9)}) {
      for (int k = 0; k < 12; ++k) {
        const double dy = thr * (k % 2 == 0 ? 1 : -1) * (k / 12.0);
        double dx = std::sqrt(edge - dy * dy);
        // Step down past the edge, then up one ulp at a time across it.
        for (int step = 0; step < 8; ++step) dx = std::nextafter(dx, 0.0);
        while (dx * dx + dy * dy >= edge) dx = std::nextafter(dx, 0.0);
        double below = dx;
        while (dx * dx + dy * dy < edge) {
          below = dx;
          dx = std::nextafter(dx, 9.0);
        }
        ASSERT_LT(below * below + dy * dy, edge);
        ASSERT_GE(dx * dx + dy * dy, edge);
        for (const double r : {below, dx, std::nextafter(dx, 9.0)}) {
          edge_pts.push_back({{0, 0}, {-r, -dy}});
          edge_pts.push_back({{0, 0}, {dy, r}});
        }
      }
    }
    homography_inliers(Mat3::identity(), edge_pts, thr, got);
    EXPECT_EQ(got, hypot_inliers(Mat3::identity(), edge_pts, thr)) << "thr " << thr;
  }

  // Thresholds whose square is subnormal, zero or infinite, where the band
  // argument does not hold, with residuals within 3e-4 of thr. At 2.2e-158
  // the diagonal residual of length thr has a subnormal square sum below
  // thr², yet its hypot is not below thr.
  for (const double thr : {1e-160, 2.2e-158, 3e-161, 1e-170, 1e155, 1e300, 0x1p500}) {
    std::vector<Correspondence> far_pts;
    for (int k = -300; k <= 300; ++k) {
      for (const double angle : {0.0, 0.3, 0.785398, 1.2}) {
        const double r = thr * (1 + k * 1e-6);
        far_pts.push_back({{0, 0}, {-r * std::cos(angle), -r * std::sin(angle)}});
      }
    }
    homography_inliers(Mat3::identity(), far_pts, thr, got);
    EXPECT_EQ(got, hypot_inliers(Mat3::identity(), far_pts, thr)) << "thr " << thr;
  }

  // Seeded sweep of general homographies (all eight free entries random)
  // with half the residuals a few 1e-9 of thr from the threshold, inside
  // or just outside the band, and half spread over [0, 2·thr).
  sim::Rng hrng(97);
  for (int trial = 0; trial < 200; ++trial) {
    Mat3 h;
    h.m = {hrng.uniform(0.5, 1.5),     hrng.uniform(-0.5, 0.5),   hrng.uniform(-50, 50),
           hrng.uniform(-0.5, 0.5),    hrng.uniform(0.5, 1.5),    hrng.uniform(-50, 50),
           hrng.uniform(-2e-3, 2e-3),  hrng.uniform(-2e-3, 2e-3), 1.0};
    const double thr = hrng.uniform(0.5, 4.0);
    std::vector<Correspondence> sweep;
    for (int i = 0; i < 40; ++i) {
      const Vec2 src{hrng.uniform(0, 640), hrng.uniform(0, 480)};
      const Vec2 mapped = h.apply(src);
      const double r = i % 2 == 0 ? thr * (1 + hrng.uniform(-3e-9, 3e-9))
                                  : hrng.uniform(0, 2 * thr);
      const double angle = hrng.uniform(0, 6.283185307179586);
      sweep.push_back({src, {mapped.x + r * std::cos(angle), mapped.y + r * std::sin(angle)}});
    }
    homography_inliers(h, sweep, thr, got);
    ASSERT_EQ(got, hypot_inliers(h, sweep, thr)) << "general trial " << trial;
  }
}

TEST(Pipeline, RecognizesWarpedObjectAmongDistractors) {
  sim::Rng rng(41);
  ObjectDatabase db;
  std::vector<Image> refs;
  for (int i = 0; i < 4; ++i) {
    refs.push_back(render_scene(rng, SceneParams{}));
    db.add_object("object-" + std::to_string(i), refs.back());
  }
  // Camera sees object 2 under a small motion.
  sim::Rng mrng(43);
  Mat3 motion = random_camera_motion(mrng);
  Image frame = warp_image(refs[2], motion);

  RecognitionPipeline pipe;
  sim::Rng rrng(47);
  auto result = pipe.recognize_frame(frame, db, rrng);
  ASSERT_TRUE(result);
  EXPECT_EQ(result->object_id, 2);
  EXPECT_GT(result->inliers, 10);
  EXPECT_GT(result->feature_upload_bytes, 0);
  // Pose maps reference corners close to where the motion put them.
  Vec2 probe{100, 80};
  EXPECT_LT(distance(result->pose.apply(probe), motion.apply(probe)), 3.0);
}

TEST(Pipeline, NoMatchOnUnknownScene) {
  sim::Rng rng(53);
  ObjectDatabase db;
  for (int i = 0; i < 3; ++i) {
    Image ref = render_scene(rng, SceneParams{});
    db.add_object("object-" + std::to_string(i), ref);
  }
  Image unknown = render_scene(rng, SceneParams{});
  RecognitionPipeline pipe;
  sim::Rng rrng(59);
  auto result = pipe.recognize_frame(unknown, db, rrng);
  EXPECT_FALSE(result.has_value());
}

TEST(Pipeline, FeatureBytesMatchCloudRidArModel) {
  sim::Rng rng(61);
  Image img = render_scene(rng, SceneParams{});
  RecognitionPipeline pipe;
  auto feats = pipe.extract(img);
  EXPECT_EQ(static_cast<std::int64_t>(feats.features.size()) * kSerializedFeatureBytes,
            static_cast<std::int64_t>(feats.features.size()) * 36);
}

/// FNV-1a over the fields a recognition result is judged by. The start value
/// is not the FNV offset basis; it stays as pinned.
struct ResultDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void u(std::uint64_t v) { h = golden::fnv1a_word(h, v); }
};

// Pins the one RANSAC RNG stream that runs through every database object in
// order: matcher or RANSAC changes that skip, reorder or re-draw for any
// object move the true object's samples, and with them this digest.
TEST(Pipeline, LargeDatabaseRecognitionGolden) {
  constexpr int kObjects = 24;
  sim::Rng rng(73);
  ObjectDatabase db;
  std::vector<Image> refs;
  for (int i = 0; i < kObjects; ++i) {
    refs.push_back(render_scene(rng, SceneParams{}));
    db.add_object("object-" + std::to_string(i), refs.back());
  }
  RecognitionPipeline pipe;
  sim::Rng rrng(79);  // shared by every frame's recognition, in order
  ResultDigest digest;
  int recognized = 0;
  for (int f = 0; f < 4; ++f) {
    const std::uint64_t frame_seed = 83 + static_cast<std::uint64_t>(f);
    sim::Rng frng(frame_seed);
    const int truth = static_cast<int>(frng.uniform_int(0, kObjects - 1));
    Image frame = warp_image(refs[static_cast<std::size_t>(truth)], random_camera_motion(frng));
    add_noise(frame, frng, 3.0);
    auto r = pipe.recognize_frame(frame, db, rrng);
    digest.u(r ? 1 : 0);
    if (!r) continue;
    recognized += r->object_id == truth ? 1 : 0;
    digest.u(static_cast<std::uint64_t>(r->object_id));
    digest.u(static_cast<std::uint64_t>(r->matches));
    digest.u(static_cast<std::uint64_t>(r->inliers));
    for (double v : r->pose.m) digest.u(std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(recognized, 4);
  EXPECT_EQ(digest.h, 0x7d1f3305bc666d7dULL) << std::hex << "digest 0x" << digest.h;
}

/// Property sweep: recognition keeps working across motion magnitudes.
class PipelineMotionSweep : public ::testing::TestWithParam<double> {};

TEST_P(PipelineMotionSweep, RecognitionSurvivesMotion) {
  double magnitude = GetParam();
  sim::Rng rng(67);
  ObjectDatabase db;
  Image ref = render_scene(rng, SceneParams{});
  db.add_object("target", ref);
  const std::uint64_t motion_seed = static_cast<std::uint64_t>(magnitude * 1000) + 3;
  sim::Rng mrng(motion_seed);
  Mat3 motion = random_camera_motion(mrng, magnitude);
  Image frame = warp_image(ref, motion);
  RecognitionPipeline pipe;
  sim::Rng rrng(71);
  auto result = pipe.recognize_frame(frame, db, rrng);
  ASSERT_TRUE(result) << "magnitude " << magnitude;
  EXPECT_EQ(result->object_id, 0);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, PipelineMotionSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 1.5));

}  // namespace
}  // namespace arnet::vision
