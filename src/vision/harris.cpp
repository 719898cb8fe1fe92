#include "arnet/vision/harris.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arnet/vision/simd.hpp"
#include "corners.hpp"

namespace arnet::vision {

// The original implementation accumulated Sobel gradients and structure-
// tensor window sums in doubles. Every quantity involved is an integer (Sobel
// |g| <= 1020, products |g1*g2| <= 1040400, window sums well under 2^53), so
// double arithmetic on them was exact — which means an integer pipeline that
// computes the same sums in int32/int64 and converts to double only for the
// final response reproduces the original responses bit for bit, while
// replacing the O((2r+1)^2) per-pixel window re-scan with rolling column
// sums (O(1) amortized per pixel).

std::vector<Feature> harris_detect(const Image& img, const HarrisParams& params) {
  const int w = img.width(), h = img.height();
  if (w < 8 || h < 8) return {};
  const int r = params.window_radius;

  // Sobel gradients as int16 (stored as uint16 bit patterns; wrapping u16
  // arithmetic is exact two's-complement int16). 8 lanes per step: the three
  // row sums per side stay <= 1020, far inside 16 bits.
  std::vector<std::uint16_t> ix(static_cast<std::size_t>(w) * h, 0);
  std::vector<std::uint16_t> iy(static_cast<std::size_t>(w) * h, 0);
  for (int y = 1; y < h - 1; ++y) {
    const std::uint8_t* rm = img.row(y - 1);
    const std::uint8_t* r0 = img.row(y);
    const std::uint8_t* rp = img.row(y + 1);
    std::uint16_t* gx_row = ix.data() + static_cast<std::size_t>(y) * w;
    std::uint16_t* gy_row = iy.data() + static_cast<std::size_t>(y) * w;
    int x = 1;
    for (; x + 7 <= w - 2; x += 8) {
      const auto tl = simd::widen_lo(simd::U8x16::load(rm + x - 1));
      const auto tc = simd::widen_lo(simd::U8x16::load(rm + x));
      const auto tr = simd::widen_lo(simd::U8x16::load(rm + x + 1));
      const auto ml = simd::widen_lo(simd::U8x16::load(r0 + x - 1));
      const auto mr = simd::widen_lo(simd::U8x16::load(r0 + x + 1));
      const auto bl = simd::widen_lo(simd::U8x16::load(rp + x - 1));
      const auto bc = simd::widen_lo(simd::U8x16::load(rp + x));
      const auto br = simd::widen_lo(simd::U8x16::load(rp + x + 1));
      const auto right = simd::add(simd::add(tr, mr), simd::add(mr, br));
      const auto left = simd::add(simd::add(tl, ml), simd::add(ml, bl));
      const auto bottom = simd::add(simd::add(bl, bc), simd::add(bc, br));
      const auto top = simd::add(simd::add(tl, tc), simd::add(tc, tr));
      simd::sub(right, left).store(gx_row + x);
      simd::sub(bottom, top).store(gy_row + x);
    }
    for (; x < w - 1; ++x) {
      const int gx = -rm[x - 1] - 2 * r0[x - 1] - rp[x - 1] + rm[x + 1] + 2 * r0[x + 1] +
                     rp[x + 1];
      const int gy = -rm[x - 1] - 2 * rm[x] - rm[x + 1] + rp[x - 1] + 2 * rp[x] + rp[x + 1];
      gx_row[x] = static_cast<std::uint16_t>(static_cast<std::int16_t>(gx));
      gy_row[x] = static_cast<std::uint16_t>(static_cast<std::int16_t>(gy));
    }
  }

  // Rolling structure-tensor window. Column sums over 2r+1 gradient rows
  // (int32: (2r+1) * 1040400 stays in range for any sane radius), updated by
  // add/subtract as the window slides down; the horizontal sum slides in
  // int64. Scan order (y outer, x inner) matches the original, so raw
  // features are pushed in the same order.
  auto product_row = [&](int y, int x, int& pxx, int& pyy, int& pxy) {
    const std::size_t i = static_cast<std::size_t>(y) * w + x;
    const int gx = static_cast<std::int16_t>(ix[i]);
    const int gy = static_cast<std::int16_t>(iy[i]);
    pxx = gx * gx;
    pyy = gy * gy;
    pxy = gx * gy;
  };
  std::vector<Feature> raw;
  if (h - 1 - r > 1 + r && w - 1 - r > 1 + r) {
    std::vector<std::int32_t> cxx(static_cast<std::size_t>(w), 0);
    std::vector<std::int32_t> cyy(static_cast<std::size_t>(w), 0);
    std::vector<std::int32_t> cxy(static_cast<std::size_t>(w), 0);
    const int y0 = 1 + r;
    for (int dy = -r; dy <= r; ++dy) {
      for (int x = 1; x < w - 1; ++x) {
        int pxx, pyy, pxy;
        product_row(y0 + dy, x, pxx, pyy, pxy);
        cxx[static_cast<std::size_t>(x)] += pxx;
        cyy[static_cast<std::size_t>(x)] += pyy;
        cxy[static_cast<std::size_t>(x)] += pxy;
      }
    }
    for (int y = y0; y < h - 1 - r; ++y) {
      if (y != y0) {
        // Slide down: add the row entering the window, drop the one leaving.
        for (int x = 1; x < w - 1; ++x) {
          int axx, ayy, axy, sxx2, syy2, sxy2;
          product_row(y + r, x, axx, ayy, axy);
          product_row(y - r - 1, x, sxx2, syy2, sxy2);
          cxx[static_cast<std::size_t>(x)] += axx - sxx2;
          cyy[static_cast<std::size_t>(x)] += ayy - syy2;
          cxy[static_cast<std::size_t>(x)] += axy - sxy2;
        }
      }
      std::int64_t sxx = 0, syy = 0, sxy = 0;
      for (int dx = -r; dx <= r; ++dx) {
        sxx += cxx[static_cast<std::size_t>(1 + r + dx)];
        syy += cyy[static_cast<std::size_t>(1 + r + dx)];
        sxy += cxy[static_cast<std::size_t>(1 + r + dx)];
      }
      for (int x = 1 + r;;) {
        // Same expression tree as the double implementation, fed the same
        // (exactly represented) sums.
        const double det = static_cast<double>(sxx) * static_cast<double>(syy) -
                           static_cast<double>(sxy) * static_cast<double>(sxy);
        const double trace = static_cast<double>(sxx + syy);
        const double response = det - params.k * trace * trace;
        if (response > params.threshold) {
          raw.push_back({x, y, static_cast<int>(std::min(response / 1e4, 2.0e9))});
        }
        if (++x >= w - 1 - r) break;
        sxx += cxx[static_cast<std::size_t>(x + r)] - cxx[static_cast<std::size_t>(x - r - 1)];
        syy += cyy[static_cast<std::size_t>(x + r)] - cyy[static_cast<std::size_t>(x - r - 1)];
        sxy += cxy[static_cast<std::size_t>(x + r)] - cxy[static_cast<std::size_t>(x - r - 1)];
      }
    }
  }

  return detail::greedy_nms(std::move(raw), params.nms_radius);
}

void downscale2_into(const Image& src, Image& dst) {
  const int ow = std::max(1, src.width() / 2), oh = std::max(1, src.height() / 2);
  if (dst.width() != ow || dst.height() != oh) dst = Image(ow, oh);
  if (src.width() >= 2 && src.height() >= 2) {
    // 2x + 1 <= 2*(ow - 1) + 1 <= src.width() - 1 (and likewise in y), so no
    // tap ever needs clamping.
    for (int y = 0; y < oh; ++y) {
      const std::uint8_t* r0 = src.row(2 * y);
      const std::uint8_t* r1 = src.row(2 * y + 1);
      std::uint8_t* out = dst.row(y);
      for (int x = 0; x < ow; ++x) {
        out[x] = static_cast<std::uint8_t>((r0[2 * x] + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1]) / 4);
      }
    }
  } else {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        int sum = src.at_clamped(2 * x, 2 * y) + src.at_clamped(2 * x + 1, 2 * y) +
                  src.at_clamped(2 * x, 2 * y + 1) + src.at_clamped(2 * x + 1, 2 * y + 1);
        dst.at(x, y) = static_cast<std::uint8_t>(sum / 4);
      }
    }
  }
}

Image downscale2(const Image& src) {
  Image out;
  downscale2_into(src, out);
  return out;
}

void build_pyramid_into(const Image& base, int levels, std::vector<Image>& pyr) {
  // Reuses the caller's level images (and a shared blur scratch) so a
  // per-frame pipeline allocates nothing once warm.
  thread_local Image blurred;
  std::size_t n = 0;
  auto level_slot = [&]() -> Image& {
    if (pyr.size() <= n) pyr.emplace_back();
    return pyr[n++];
  };
  level_slot() = base;
  for (int l = 1; l < levels; ++l) {
    const Image& prev = pyr[n - 1];
    if (prev.width() < 40 || prev.height() < 40) break;
    box_blur_into(prev, 1, blurred);
    downscale2_into(blurred, level_slot());
  }
  pyr.resize(n);
}

std::vector<Image> build_pyramid(const Image& base, int levels) {
  std::vector<Image> pyr;
  build_pyramid_into(base, levels, pyr);
  return pyr;
}

std::vector<ScaledFeature> multiscale_fast(const std::vector<Image>& pyramid, int threshold,
                                           int nms_radius) {
  std::vector<ScaledFeature> out;
  int scale = 1;
  for (std::size_t level = 0; level < pyramid.size(); ++level) {
    for (const Feature& f : fast_detect(pyramid[level], threshold, nms_radius)) {
      ScaledFeature sf;
      sf.f = {f.x * scale, f.y * scale, f.score};
      sf.level = static_cast<int>(level);
      out.push_back(sf);
    }
    scale *= 2;
  }
  return out;
}

}  // namespace arnet::vision
