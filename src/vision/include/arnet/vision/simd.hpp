#pragma once

// Portable 16-lane byte / 8-lane word SIMD wrapper for the vision hot loops
// (FAST cardinal pre-test, box blur). Exactly one backend is selected
// at compile time:
//
//   - SSE2 on x86-64 (baseline for every 64-bit x86, no -m flags needed),
//   - NEON on AArch64 / ARMv7-with-NEON,
//   - a plain-array scalar fallback otherwise, or whenever ARNET_NO_SIMD is
//     defined (the CI matrix builds and tests that path explicitly).
//
// Every operation is defined so all three backends produce bit-identical
// results; the golden tests in vision_simd_test.cpp pin the vectorized
// detectors to naive scalar references, so they hold on whichever backend a
// build picked.

#include <cstdint>
#include <cstring>

#if !defined(ARNET_NO_SIMD) && (defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__))
#define ARNET_SIMD_SSE2 1
#include <emmintrin.h>
#elif !defined(ARNET_NO_SIMD) && (defined(__ARM_NEON) || defined(__ARM_NEON__) || defined(__aarch64__))
#define ARNET_SIMD_NEON 1
#include <arm_neon.h>
#else
#define ARNET_SIMD_SCALAR 1
#endif

namespace arnet::vision::simd {

#if defined(ARNET_SIMD_SSE2)
inline constexpr const char* kBackendName = "sse2";
#elif defined(ARNET_SIMD_NEON)
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr const char* kBackendName = "scalar";
#endif

struct U16x8;

/// 16 unsigned bytes.
struct U8x16 {
#if defined(ARNET_SIMD_SSE2)
  __m128i v;
#elif defined(ARNET_SIMD_NEON)
  uint8x16_t v;
#else
  std::uint8_t v[16];
#endif

  static U8x16 splat(std::uint8_t x) {
#if defined(ARNET_SIMD_SSE2)
    return {_mm_set1_epi8(static_cast<char>(x))};
#elif defined(ARNET_SIMD_NEON)
    return {vdupq_n_u8(x)};
#else
    U8x16 r;
    for (auto& l : r.v) l = x;
    return r;
#endif
  }

  /// Unaligned load of 16 bytes.
  static U8x16 load(const std::uint8_t* p) {
#if defined(ARNET_SIMD_SSE2)
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
#elif defined(ARNET_SIMD_NEON)
    return {vld1q_u8(p)};
#else
    U8x16 r;
    std::memcpy(r.v, p, 16);
    return r;
#endif
  }

  void store(std::uint8_t* p) const {
#if defined(ARNET_SIMD_SSE2)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
#elif defined(ARNET_SIMD_NEON)
    vst1q_u8(p, v);
#else
    std::memcpy(p, v, 16);
#endif
  }
};

/// Saturating a + b per byte.
inline U8x16 adds(U8x16 a, U8x16 b) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_adds_epu8(a.v, b.v)};
#elif defined(ARNET_SIMD_NEON)
  return {vqaddq_u8(a.v, b.v)};
#else
  U8x16 r;
  for (int i = 0; i < 16; ++i) {
    int s = a.v[i] + b.v[i];
    r.v[i] = static_cast<std::uint8_t>(s > 255 ? 255 : s);
  }
  return r;
#endif
}

/// Saturating a - b per byte.
inline U8x16 subs(U8x16 a, U8x16 b) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_subs_epu8(a.v, b.v)};
#elif defined(ARNET_SIMD_NEON)
  return {vqsubq_u8(a.v, b.v)};
#else
  U8x16 r;
  for (int i = 0; i < 16; ++i) {
    int s = a.v[i] - b.v[i];
    r.v[i] = static_cast<std::uint8_t>(s < 0 ? 0 : s);
  }
  return r;
#endif
}

/// Per-byte mask: 0xFF where a > b (unsigned), else 0x00.
inline U8x16 gt(U8x16 a, U8x16 b) {
#if defined(ARNET_SIMD_SSE2)
  // SSE2 has no unsigned byte compare; a > b  <=>  max(a, b) != b.
  const __m128i mx = _mm_max_epu8(a.v, b.v);
  const __m128i eq = _mm_cmpeq_epi8(mx, b.v);
  return {_mm_andnot_si128(eq, _mm_set1_epi8(-1))};
#elif defined(ARNET_SIMD_NEON)
  return {vcgtq_u8(a.v, b.v)};
#else
  U8x16 r;
  for (int i = 0; i < 16; ++i) r.v[i] = a.v[i] > b.v[i] ? 0xFF : 0x00;
  return r;
#endif
}

inline U8x16 bit_or(U8x16 a, U8x16 b) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_or_si128(a.v, b.v)};
#elif defined(ARNET_SIMD_NEON)
  return {vorrq_u8(a.v, b.v)};
#else
  U8x16 r;
  for (int i = 0; i < 16; ++i) r.v[i] = a.v[i] | b.v[i];
  return r;
#endif
}

inline U8x16 bit_and(U8x16 a, U8x16 b) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_and_si128(a.v, b.v)};
#elif defined(ARNET_SIMD_NEON)
  return {vandq_u8(a.v, b.v)};
#else
  U8x16 r;
  for (int i = 0; i < 16; ++i) r.v[i] = a.v[i] & b.v[i];
  return r;
#endif
}

/// One bit per lane (bit i = lane i's high bit). Lanes whose mask byte is
/// 0xFF set their bit; 0x00 lanes don't.
inline std::uint32_t movemask(U8x16 a) {
#if defined(ARNET_SIMD_SSE2)
  return static_cast<std::uint32_t>(_mm_movemask_epi8(a.v));
#elif defined(ARNET_SIMD_NEON)
  // Classic NEON movemask: scale each lane's high bit by its lane index
  // weight, then horizontal-add per half.
  const uint8x16_t bits = vshrq_n_u8(a.v, 7);
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t weighted = vmulq_u8(bits, weights);
#if defined(__aarch64__)
  const std::uint32_t lo = vaddv_u8(vget_low_u8(weighted));
  const std::uint32_t hi = vaddv_u8(vget_high_u8(weighted));
#else
  uint64x1_t l = vpaddl_u32(vpaddl_u16(vpaddl_u8(vget_low_u8(weighted))));
  uint64x1_t h = vpaddl_u32(vpaddl_u16(vpaddl_u8(vget_high_u8(weighted))));
  const std::uint32_t lo = static_cast<std::uint32_t>(vget_lane_u64(l, 0));
  const std::uint32_t hi = static_cast<std::uint32_t>(vget_lane_u64(h, 0));
#endif
  return lo | (hi << 8);
#else
  std::uint32_t m = 0;
  for (int i = 0; i < 16; ++i) m |= static_cast<std::uint32_t>(a.v[i] >> 7) << i;
  return m;
#endif
}

/// 8 unsigned 16-bit words.
struct U16x8 {
#if defined(ARNET_SIMD_SSE2)
  __m128i v;
#elif defined(ARNET_SIMD_NEON)
  uint16x8_t v;
#else
  std::uint16_t v[8];
#endif

  static U16x8 splat(std::uint16_t x) {
#if defined(ARNET_SIMD_SSE2)
    return {_mm_set1_epi16(static_cast<short>(x))};
#elif defined(ARNET_SIMD_NEON)
    return {vdupq_n_u16(x)};
#else
    U16x8 r;
    for (auto& l : r.v) l = x;
    return r;
#endif
  }

  static U16x8 load(const std::uint16_t* p) {
#if defined(ARNET_SIMD_SSE2)
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
#elif defined(ARNET_SIMD_NEON)
    return {vld1q_u16(p)};
#else
    U16x8 r;
    std::memcpy(r.v, p, 16);
    return r;
#endif
  }

  void store(std::uint16_t* p) const {
#if defined(ARNET_SIMD_SSE2)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
#elif defined(ARNET_SIMD_NEON)
    vst1q_u16(p, v);
#else
    std::memcpy(p, v, 16);
#endif
  }
};

/// Zero-extend the low 8 bytes to 16-bit words.
inline U16x8 widen_lo(U8x16 a) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_unpacklo_epi8(a.v, _mm_setzero_si128())};
#elif defined(ARNET_SIMD_NEON)
  return {vmovl_u8(vget_low_u8(a.v))};
#else
  U16x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i];
  return r;
#endif
}

/// Zero-extend the high 8 bytes to 16-bit words.
inline U16x8 widen_hi(U8x16 a) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_unpackhi_epi8(a.v, _mm_setzero_si128())};
#elif defined(ARNET_SIMD_NEON)
  return {vmovl_u8(vget_high_u8(a.v))};
#else
  U16x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = a.v[i + 8];
  return r;
#endif
}

/// Wrapping a + b per word (exact for sums that fit 16 bits unsigned).
inline U16x8 add(U16x8 a, U16x8 b) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_add_epi16(a.v, b.v)};
#elif defined(ARNET_SIMD_NEON)
  return {vaddq_u16(a.v, b.v)};
#else
  U16x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = static_cast<std::uint16_t>(a.v[i] + b.v[i]);
  return r;
#endif
}

/// High 16 bits of the unsigned 32-bit product a * b, per word. This is the
/// primitive behind exact division by small constants: (v * m) >> (16 + s)
/// with a verified magic multiplier m.
inline U16x8 mulhi(U16x8 a, U16x8 b) {
#if defined(ARNET_SIMD_SSE2)
  return {_mm_mulhi_epu16(a.v, b.v)};
#elif defined(ARNET_SIMD_NEON)
  const uint32x4_t lo = vmull_u16(vget_low_u16(a.v), vget_low_u16(b.v));
  const uint32x4_t hi = vmull_u16(vget_high_u16(a.v), vget_high_u16(b.v));
  return {vcombine_u16(vshrn_n_u32(lo, 16), vshrn_n_u32(hi, 16))};
#else
  U16x8 r;
  for (int i = 0; i < 8; ++i) {
    r.v[i] = static_cast<std::uint16_t>(
        (static_cast<std::uint32_t>(a.v[i]) * b.v[i]) >> 16);
  }
  return r;
#endif
}

/// Logical right shift per word by a compile-time amount.
template <int N>
inline U16x8 shr(U16x8 a) {
  static_assert(N >= 0 && N < 16);
#if defined(ARNET_SIMD_SSE2)
  return {_mm_srli_epi16(a.v, N)};
#elif defined(ARNET_SIMD_NEON)
  if constexpr (N == 0) return a;
  else return {vshrq_n_u16(a.v, N)};  // NOLINT(readability-else-after-return)
#else
  U16x8 r;
  for (int i = 0; i < 8; ++i) r.v[i] = static_cast<std::uint16_t>(a.v[i] >> N);
  return r;
#endif
}

/// Saturating pack of two word vectors into 16 bytes (lanes of `lo` first).
/// All call sites pass values already <= 255, so the saturation never fires
/// and the pack is exact.
inline U8x16 pack(U16x8 lo, U16x8 hi) {
#if defined(ARNET_SIMD_SSE2)
  // packus operates on *signed* 16-bit inputs; inputs here are <= 255 so the
  // sign bit is never set and the unsigned interpretation is unaffected.
  return {_mm_packus_epi16(lo.v, hi.v)};
#elif defined(ARNET_SIMD_NEON)
  return {vcombine_u8(vqmovn_u16(lo.v), vqmovn_u16(hi.v))};
#else
  U8x16 r;
  for (int i = 0; i < 8; ++i) {
    r.v[i] = static_cast<std::uint8_t>(lo.v[i] > 255 ? 255 : lo.v[i]);
    r.v[i + 8] = static_cast<std::uint8_t>(hi.v[i] > 255 ? 255 : hi.v[i]);
  }
  return r;
#endif
}

}  // namespace arnet::vision::simd
