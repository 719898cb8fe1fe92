#include "arnet/vision/synth.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "arnet/vision/simd.hpp"

namespace arnet::vision {

namespace {

// The box blur is separable: window clamping in x and y is independent, so
//   sum over the (2r+1)^2 clamped window
//     = sum_dx colsum(clamp(x+dx))  with  colsum(x) = sum_dy src(x, clamp(y+dy)),
// and integer sums are exact in any order — the separable result equals the
// naive per-pixel sum bit for bit, including at the borders. The division by
// the window area n uses plain integer division on the scalar edges and a
// verified magic multiplier in the SIMD interior; both compute floor(v / n)
// exactly over the reachable value range, so the two regions agree.

/// Vertical pass for radius 1/2: 16-bit column sums over the full stride
/// (padding columns are deterministic fill, so summing them is harmless).
/// Max sum = (2r+1) * 255 = 1275, well inside uint16.
template <int R>
void column_sums_u16(const Image& src, std::vector<std::uint16_t>& tmp) {
  const int h = src.height();
  const int stride = src.stride();
  tmp.resize(static_cast<std::size_t>(stride) * h);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* rows[2 * R + 1];
    for (int dy = -R; dy <= R; ++dy) {
      rows[dy + R] = src.row(std::clamp(y + dy, 0, h - 1));
    }
    std::uint16_t* out = tmp.data() + static_cast<std::size_t>(y) * stride;
    for (int x = 0; x < stride; x += 16) {
      simd::U16x8 lo = simd::U16x8::splat(0);
      simd::U16x8 hi = simd::U16x8::splat(0);
      for (int k = 0; k < 2 * R + 1; ++k) {
        const simd::U8x16 v = simd::U8x16::load(rows[k] + x);
        lo = simd::add(lo, simd::widen_lo(v));
        hi = simd::add(hi, simd::widen_hi(v));
      }
      lo.store(out + x);
      hi.store(out + x + 8);
    }
  }
}

/// floor(v / 9) for v <= 2295 (max 3-row column sum * 3 columns):
/// (v * 7282) >> 16, verified exact over the full range by the golden tests.
inline simd::U16x8 div9(simd::U16x8 v) { return simd::mulhi(v, simd::U16x8::splat(7282)); }

/// floor(v / 25) for v <= 43674 (max 5x5 sum is 6375):
/// (v * 5243) >> 17. The naive 16-bit magic ((v * 2622) >> 16) is NOT exact
/// past v = 4698, which 5x5 sums exceed — hence the extra shift.
inline simd::U16x8 div25(simd::U16x8 v) {
  return simd::shr<1>(simd::mulhi(v, simd::U16x8::splat(5243)));
}

/// Horizontal pass for radius 1/2: interior lanes via SIMD (no clamping
/// needed), edges via the scalar clamped sum. n = (2r+1)^2.
template <int R>
void blur_rows_from_column_sums(const std::vector<std::uint16_t>& tmp, Image& dst) {
  const int w = dst.width();
  const int h = dst.height();
  const int stride = dst.stride();
  constexpr int kN = (2 * R + 1) * (2 * R + 1);
  for (int y = 0; y < h; ++y) {
    const std::uint16_t* col = tmp.data() + static_cast<std::size_t>(y) * stride;
    std::uint8_t* out = dst.row(y);
    int x = 0;
    // Left edge (clamped x taps).
    for (; x < std::min(R, w); ++x) {
      int sum = 0;
      for (int dx = -R; dx <= R; ++dx) sum += col[std::clamp(x + dx, 0, w - 1)];
      out[x] = static_cast<std::uint8_t>(sum / kN);
    }
    // Interior: 16 pixels per iteration, loads span [x-R, x+15+R] — in
    // bounds whenever the rightmost lane is interior.
    for (; x + 15 <= w - 1 - R; x += 16) {
      simd::U16x8 lo = simd::U16x8::splat(0);
      simd::U16x8 hi = simd::U16x8::splat(0);
      for (int dx = -R; dx <= R; ++dx) {
        lo = simd::add(lo, simd::U16x8::load(col + x + dx));
        hi = simd::add(hi, simd::U16x8::load(col + x + dx + 8));
      }
      if constexpr (R == 1) {
        lo = div9(lo);
        hi = div9(hi);
      } else {
        lo = div25(lo);
        hi = div25(hi);
      }
      simd::pack(lo, hi).store(out + x);
    }
    // Remaining interior + right edge (clamped x taps; for interior x the
    // clamp is a no-op, so this is the same sum the SIMD block computes).
    for (; x < w; ++x) {
      int sum = 0;
      for (int dx = -R; dx <= R; ++dx) sum += col[std::clamp(x + dx, 0, w - 1)];
      out[x] = static_cast<std::uint8_t>(sum / kN);
    }
  }
}

/// Generic-radius separable path (scalar, 32-bit sums): same exactness
/// argument, no range constraints.
void box_blur_generic(const Image& src, int radius, Image& dst) {
  const int w = src.width(), h = src.height();
  std::vector<std::uint32_t> col(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    std::uint32_t* out = col.data() + static_cast<std::size_t>(y) * w;
    for (int dy = -radius; dy <= radius; ++dy) {
      const std::uint8_t* row = src.row(std::clamp(y + dy, 0, h - 1));
      if (dy == -radius) {
        for (int x = 0; x < w; ++x) out[x] = row[x];
      } else {
        for (int x = 0; x < w; ++x) out[x] += row[x];
      }
    }
  }
  const int n = (2 * radius + 1) * (2 * radius + 1);
  for (int y = 0; y < h; ++y) {
    const std::uint32_t* in = col.data() + static_cast<std::size_t>(y) * w;
    std::uint8_t* out = dst.row(y);
    for (int x = 0; x < w; ++x) {
      std::uint32_t sum = 0;
      for (int dx = -radius; dx <= radius; ++dx) sum += in[std::clamp(x + dx, 0, w - 1)];
      out[x] = static_cast<std::uint8_t>(sum / n);
    }
  }
}

}  // namespace

void box_blur_into(const Image& src, int radius, Image& dst) {
  if (dst.width() != src.width() || dst.height() != src.height()) {
    dst = Image(src.width(), src.height());
  }
  if (src.empty()) return;
  if (radius == 1 || radius == 2) {
    // Reused across calls: the recognition pipeline blurs every frame, and
    // the column-sum scratch is the only per-call allocation left.
    thread_local std::vector<std::uint16_t> tmp;
    if (radius == 1) {
      column_sums_u16<1>(src, tmp);
      blur_rows_from_column_sums<1>(tmp, dst);
    } else {
      column_sums_u16<2>(src, tmp);
      blur_rows_from_column_sums<2>(tmp, dst);
    }
  } else {
    box_blur_generic(src, radius, dst);
  }
}

Image box_blur(const Image& src, int radius) {
  Image out(src.width(), src.height());
  box_blur_into(src, radius, out);
  return out;
}

Image render_scene(sim::Rng& rng, const SceneParams& params) {
  Image img(params.width, params.height);
  // Smooth background gradient so the scene is not flat.
  double gx = rng.uniform(-0.3, 0.3), gy = rng.uniform(-0.3, 0.3);
  double base = rng.uniform(60.0, 160.0);
  for (int y = 0; y < params.height; ++y) {
    std::uint8_t* row = img.row(y);
    for (int x = 0; x < params.width; ++x) {
      double v = base + gx * x + gy * y;
      row[x] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
  // Fill columns [x0, x1) of row y (empty or inverted spans write nothing).
  auto fill_span = [&](int y, int x0, int x1, std::uint8_t shade) {
    if (x1 > x0) std::memset(img.row(y) + x0, shade, static_cast<std::size_t>(x1 - x0));
  };
  // High-contrast shapes: filled axis-aligned rectangles and discs.
  for (int s = 0; s < params.shapes; ++s) {
    auto shade = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    bool disc = rng.bernoulli(0.4);
    int cx = static_cast<int>(rng.uniform_int(0, params.width - 1));
    int cy = static_cast<int>(rng.uniform_int(0, params.height - 1));
    if (disc) {
      // Clamp the upper bounds: uniform_int(lo, hi) with hi < lo is UB in
      // the underlying distribution, and tiny test frames (width < 48) hit
      // it. Draws for normal frame sizes are unchanged.
      int r = static_cast<int>(rng.uniform_int(6, std::max<std::int64_t>(6, params.width / 8)));
      // Pixels with (x-cx)^2 + (y-cy)^2 <= r^2 inside the half-open box
      // [cx-r, cx+r) x [cy-r, cy+r): per row, |x-cx| <= d with d the exact
      // integer square root of r^2 - dy^2. The box's right edge cx+r is
      // exclusive, so the row through the center stops one pixel short of
      // the disc; rendered scenes (and every digest built on them) rely on
      // that shape.
      for (int y = std::max(0, cy - r); y < std::min(params.height, cy + r); ++y) {
        const int rem = r * r - (y - cy) * (y - cy);
        int d = static_cast<int>(std::sqrt(static_cast<double>(rem)));
        while (d * d > rem) --d;
        while ((d + 1) * (d + 1) <= rem) ++d;
        fill_span(y, std::max(0, cx - d), std::min({params.width, cx + r, cx + d + 1}), shade);
      }
    } else {
      int w = static_cast<int>(rng.uniform_int(8, std::max<std::int64_t>(8, params.width / 5)));
      int h = static_cast<int>(rng.uniform_int(8, std::max<std::int64_t>(8, params.height / 5)));
      for (int y = std::max(0, cy - h / 2); y < std::min(params.height, cy + h / 2); ++y) {
        fill_span(y, std::max(0, cx - w / 2), std::min(params.width, cx + w / 2), shade);
      }
    }
  }
  if (params.noise_sigma > 0) add_noise(img, rng, params.noise_sigma);
  return img;
}

Image warp_image(const Image& src, const Mat3& h, std::uint8_t fill) {
  Image out(src.width(), src.height(), fill);
  Mat3 inv = h.inverse();
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      Vec2 p = inv.apply({static_cast<double>(x), static_cast<double>(y)});
      if (p.x < -0.5 || p.y < -0.5 || p.x > src.width() - 0.5 || p.y > src.height() - 0.5) {
        continue;
      }
      out.at(x, y) = static_cast<std::uint8_t>(std::clamp(src.bilinear(p.x, p.y), 0.0, 255.0));
    }
  }
  return out;
}

void add_noise(Image& img, sim::Rng& rng, double sigma) {
  // Walk pixels row by row (not the raw buffer): padding bytes are not
  // pixels, and skipping them keeps one RNG draw per pixel — the draw
  // sequence (and thus every rendered scene) is identical to the packed
  // layout's.
  for (int y = 0; y < img.height(); ++y) {
    std::uint8_t* row = img.row(y);
    for (int x = 0; x < img.width(); ++x) {
      double v = row[x] + rng.normal(0.0, sigma);
      row[x] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
}

Mat3 random_camera_motion(sim::Rng& rng, double magnitude) {
  double angle = rng.uniform(-0.08, 0.08) * magnitude;
  double scale = 1.0 + rng.uniform(-0.06, 0.06) * magnitude;
  double tx = rng.uniform(-12.0, 12.0) * magnitude;
  double ty = rng.uniform(-9.0, 9.0) * magnitude;
  Mat3 h = Mat3::similarity(scale, angle, tx, ty);
  // Mild perspective terms.
  h(2, 0) = rng.uniform(-4e-5, 4e-5) * magnitude;
  h(2, 1) = rng.uniform(-4e-5, 4e-5) * magnitude;
  return h;
}

}  // namespace arnet::vision
