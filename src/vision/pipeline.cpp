#include "arnet/vision/pipeline.hpp"

#include <algorithm>

namespace arnet::vision {

namespace {

/// FAST settings shared by the database and the frames it matches.
constexpr int kFastThreshold = 20;
constexpr int kNmsRadius = 4;
constexpr RansacParams kRansac{};

}  // namespace

int ObjectDatabase::add_object(std::string name, const Image& reference) {
  Entry e;
  e.name = std::move(name);
  auto feats = fast_detect(reference, kFastThreshold, kNmsRadius);
  e.described = brief_describe(reference, feats);
  objects_.push_back(std::move(e));
  return static_cast<int>(objects_.size()) - 1;
}

DescribedFeatures RecognitionPipeline::extract(const Image& frame) const {
  auto feats = fast_detect(frame, kFastThreshold, kNmsRadius);
  if (static_cast<int>(feats.size()) > kFeaturesPerFrame) {
    feats.resize(static_cast<std::size_t>(kFeaturesPerFrame));  // strongest first (sorted)
  }
  return brief_describe(frame, feats);
}

std::optional<RecognitionResult> RecognitionPipeline::recognize(
    const DescribedFeatures& frame_features, const ObjectDatabase& db, sim::Rng& rng) const {
  RecognitionResult best;
  bool found = false;
  // Scratch shared by every object. Objects run in database order through
  // the one `rng` stream: skipping, reordering or parallelizing them would
  // change the samples RANSAC draws for the true object.
  MatchScratch scratch;
  std::vector<Match> matches;
  std::vector<Correspondence> corr;
  for (int id = 0; id < static_cast<int>(db.size()); ++id) {
    const auto& obj = db.entry(id);
    match_descriptors(obj.described.descriptors, frame_features.descriptors, matches, scratch);
    if (static_cast<int>(matches.size()) < kRansac.min_inliers) continue;

    corr.clear();
    for (const Match& m : matches) {
      const Feature& src = obj.described.features[static_cast<std::size_t>(m.query)];
      const Feature& dst = frame_features.features[static_cast<std::size_t>(m.train)];
      corr.push_back({{static_cast<double>(src.x), static_cast<double>(src.y)},
                      {static_cast<double>(dst.x), static_cast<double>(dst.y)}});
    }
    auto ransac = estimate_homography_ransac(corr, rng, kRansac);
    if (!ransac) continue;
    if (!found || static_cast<int>(ransac->inliers.size()) > best.inliers) {
      found = true;
      best.object_id = id;
      best.object_name = obj.name;
      best.matches = static_cast<int>(matches.size());
      best.inliers = static_cast<int>(ransac->inliers.size());
      best.pose = ransac->h;
    }
  }
  if (!found) return std::nullopt;
  best.frame_features = static_cast<int>(frame_features.features.size());
  best.feature_upload_bytes =
      static_cast<std::int64_t>(frame_features.features.size()) * kSerializedFeatureBytes;
  return best;
}

std::optional<RecognitionResult> RecognitionPipeline::recognize_frame(
    const Image& frame, const ObjectDatabase& db, sim::Rng& rng) const {
  return recognize(extract(frame), db, rng);
}

}  // namespace arnet::vision
