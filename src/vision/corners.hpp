// Corner-detector internals of fast_detect (features.cpp): the FAST
// ring-mask arc test and the greedy non-maximum suppression. Not part of the
// public include tree.
#pragma once

#include <cstdint>
#include <vector>

#include "arnet/vision/features.hpp"

namespace arnet::vision::detail {

/// Does the 16-bit ring mask `m16` (bit i set = ring pixel i qualifies)
/// hold 9 cyclically contiguous set bits? Doubling the mask into 32 bits
/// unrolls the wrap-around; after the folds, bit i of `run` is set iff bits
/// i..i+8 of the doubled mask all are, and bits 0..15 cover every start.
constexpr bool has_arc9(std::uint32_t m16) {
  const std::uint32_t m = m16 | (m16 << 16);
  std::uint32_t run = m & (m >> 1);  // bits i..i+1
  run &= run >> 2;                   // i..i+3
  run &= run >> 4;                   // i..i+7
  run &= m >> 8;                     // i..i+8
  return (run & 0xFFFFu) != 0;
}

/// Greedy NMS: sorts `raw` by descending score, then keeps each feature
/// unless an earlier kept feature lies within `radius` of it in both x and
/// y. A negative radius keeps everything.
std::vector<Feature> greedy_nms(std::vector<Feature> raw, int radius);

}  // namespace arnet::vision::detail
