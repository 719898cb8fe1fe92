#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "arnet/vision/image.hpp"

namespace arnet::vision {

/// A detected corner with its FAST score.
struct Feature {
  int x = 0;
  int y = 0;
  int score = 0;
};

/// FAST-9 corner detector (Rosten & Drummond): a pixel is a corner when 9
/// contiguous pixels on the 16-pixel Bresenham circle are all brighter than
/// center+threshold or all darker than center-threshold. Non-maximum
/// suppression keeps local score maxima only.
std::vector<Feature> fast_detect(const Image& img, int threshold = 20, int nms_radius = 4);

/// 256-bit BRIEF descriptor over a smoothed 31x31 patch.
struct Descriptor {
  std::array<std::uint64_t, 4> bits{};

  int hamming(const Descriptor& o) const {
    return std::popcount(bits[0] ^ o.bits[0]) + std::popcount(bits[1] ^ o.bits[1]) +
           std::popcount(bits[2] ^ o.bits[2]) + std::popcount(bits[3] ^ o.bits[3]);
  }
};

/// Wire size of one serialized feature (x, y as uint16 + 32-byte BRIEF) —
/// what a CloudRidAR-style client actually uploads instead of pixels.
inline constexpr std::int64_t kSerializedFeatureBytes = 2 + 2 + 32;

/// The CloudRidAR payload of the paper's MAR application, which the
/// recognition pipeline, the offloading session and the serving models all
/// carry: the corners a client keeps per frame (the strongest first) and
/// uploads, and the recognition result returned to it.
inline constexpr int kFeaturesPerFrame = 400;
inline constexpr std::int64_t kFeatureUploadBytes = kFeaturesPerFrame * kSerializedFeatureBytes;
inline constexpr std::int64_t kRecognitionResultBytes = 400;

/// Compute BRIEF descriptors for `features` on a pre-blurred copy of `img`.
/// Features too close to the border are dropped (mirrored in the returned
/// feature list).
struct DescribedFeatures {
  std::vector<Feature> features;
  std::vector<Descriptor> descriptors;
};
DescribedFeatures brief_describe(const Image& img, const std::vector<Feature>& features);

/// One correspondence between two descriptor sets.
struct Match {
  int query = 0;  ///< index into the query set
  int train = 0;  ///< index into the train set
  int distance = 0;
};

/// Brute-force Hamming matching with Lowe-style ratio test and symmetric
/// cross-check.
std::vector<Match> match_descriptors(const std::vector<Descriptor>& query,
                                     const std::vector<Descriptor>& train,
                                     double max_ratio = 0.8, int max_distance = 64);

/// Per-call buffers of match_descriptors, kept by a caller that matches many
/// sets in a row (one frame against every database object) so they are
/// allocated once rather than once per set.
struct MatchScratch {
  std::vector<Match> forward;
  std::vector<int> best_for_train;
  std::vector<int> best_dist_train;
  /// The train set transposed into four word planes, for the vector kernel.
  std::vector<std::uint64_t> planes;
};

/// match_descriptors into `out` (cleared first), reusing `scratch`.
void match_descriptors(const std::vector<Descriptor>& query,
                       const std::vector<Descriptor>& train, std::vector<Match>& out,
                       MatchScratch& scratch, double max_ratio = 0.8, int max_distance = 64);

}  // namespace arnet::vision
