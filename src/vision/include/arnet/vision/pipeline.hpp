#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arnet/sim/rng.hpp"
#include "arnet/vision/features.hpp"
#include "arnet/vision/homography.hpp"
#include "arnet/vision/image.hpp"

namespace arnet::vision {

/// Server-side object database: reference images with precomputed features,
/// standing in for the "large database of real world images" of §III-B.
class ObjectDatabase {
 public:
  /// Register an object; returns its id.
  int add_object(std::string name, const Image& reference);

  std::size_t size() const { return objects_.size(); }
  const std::string& name(int id) const { return objects_[static_cast<std::size_t>(id)].name; }

  struct Entry {
    std::string name;
    DescribedFeatures described;
  };
  const Entry& entry(int id) const { return objects_[static_cast<std::size_t>(id)]; }

 private:
  std::vector<Entry> objects_;
};

/// Result of recognizing one camera frame against the database.
struct RecognitionResult {
  int object_id = -1;
  std::string object_name;
  int matches = 0;
  int inliers = 0;
  Mat3 pose;             ///< reference -> frame homography
  int frame_features = 0;
  std::int64_t feature_upload_bytes = 0;  ///< CloudRidAR-style payload size
};

/// Full recognition pipeline: FAST -> BRIEF -> match -> RANSAC homography.
/// Exposes the intermediate products so offloading strategies can split the
/// computation at any stage (the paper's `x`/`y` split parameters).
class RecognitionPipeline {
 public:
  /// Stage 1 (runs on-device under CloudRidAR): extract + describe.
  DescribedFeatures extract(const Image& frame) const;

  /// Stage 2 (runs on the surrogate): match features against every database
  /// object and estimate the pose of the best one.
  std::optional<RecognitionResult> recognize(const DescribedFeatures& frame_features,
                                             const ObjectDatabase& db, sim::Rng& rng) const;

  /// Convenience: both stages.
  std::optional<RecognitionResult> recognize_frame(const Image& frame,
                                                   const ObjectDatabase& db,
                                                   sim::Rng& rng) const;
};

}  // namespace arnet::vision
