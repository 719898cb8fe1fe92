// Micro-benchmarks of the vision substrate. These calibrate the
// desktop-reference stage costs of the CloudRidAR table (mar::cloudridar in
// mar/cost_model.hpp): device-class costs are those times Table I's
// compute_scale.
// Writes the arnet-bench-v1 document CI gates,
// <--out-dir>/BENCH_micro_vision.json (see json_bench.hpp).
#include <cstdint>
#include <vector>

#include "arnet/sim/rng.hpp"
#include "arnet/vision/features.hpp"
#include "arnet/vision/homography.hpp"
#include "arnet/vision/pipeline.hpp"
#include "arnet/vision/privacy.hpp"
#include "arnet/vision/synth.hpp"
#include "json_bench.hpp"

namespace {

using namespace arnet;
using namespace arnet::vision;
using benchjson::keep;

Image scene(int w, int h) {
  sim::Rng rng(42);
  SceneParams p;
  p.width = w;
  p.height = h;
  return render_scene(rng, p);
}

std::int64_t run_render_scene(int width) {
  sim::Rng rng(42);
  SceneParams p;
  p.width = width;
  p.height = width * 3 / 4;
  keep(render_scene(rng, p));
  return 0;
}

std::int64_t run_fast_detect(int width) {
  static Image img320 = scene(320, 240);
  static Image img640 = scene(640, 480);
  static Image img1280 = scene(1280, 960);
  const Image& img = width == 320 ? img320 : width == 640 ? img640 : img1280;
  keep(fast_detect(img, 20));
  return 0;
}

std::int64_t run_brief_describe() {
  static Image img = scene(320, 240);
  static auto feats = fast_detect(img, 20);
  keep(brief_describe(img, feats));
  return 0;
}

std::int64_t run_privacy_redaction() {
  static std::vector<SensitiveRegion> truth;
  static Image img = [] {
    sim::Rng rng(5);
    return render_scene_with_sensitive(rng, SceneParams{}, 3, 2, truth);
  }();
  Image frame = img;
  keep(apply_privacy(frame, PrivacyLevel::kBlurSensitive));
  return 0;
}

std::int64_t run_match_descriptors() {
  static Image img = scene(320, 240);
  static Image moved = [] {
    sim::Rng mrng(7);
    return warp_image(img, random_camera_motion(mrng));
  }();
  static auto a = brief_describe(img, fast_detect(img, 20));
  static auto b = brief_describe(moved, fast_detect(moved, 20));
  keep(match_descriptors(a.descriptors, b.descriptors));
  return 0;
}

std::int64_t run_ransac_homography() {
  static std::vector<Correspondence> pts = [] {
    sim::Rng rng(23);
    Mat3 truth = Mat3::similarity(0.95, -0.15, -12, 6);
    std::vector<Correspondence> out;
    for (int i = 0; i < 80; ++i) {
      Vec2 p{rng.uniform(0, 300), rng.uniform(0, 200)};
      out.push_back({p, truth.apply(p)});
    }
    for (int i = 0; i < 20; ++i) {
      out.push_back({{rng.uniform(0, 300), rng.uniform(0, 200)},
                     {rng.uniform(0, 300), rng.uniform(0, 200)}});
    }
    return out;
  }();
  sim::Rng r(11);
  keep(estimate_homography_ransac(pts, r));
  return 0;
}

// A distractor object's matches: 32 unstructured correspondences. The best
// hypothesis keeps a handful of inliers, so RANSAC runs to its 500-iteration
// cap, as it does for every database object but the one in view.
std::int64_t run_ransac_distractor() {
  static std::vector<Correspondence> pts = [] {
    sim::Rng rng(29);
    std::vector<Correspondence> out;
    for (int i = 0; i < 32; ++i) {
      out.push_back({{rng.uniform(0, 320), rng.uniform(0, 240)},
                     {rng.uniform(0, 320), rng.uniform(0, 240)}});
    }
    return out;
  }();
  sim::Rng r(31);
  keep(estimate_homography_ransac(pts, r));
  return 0;
}

struct PipelineFixture {
  ObjectDatabase db;
  std::vector<Image> refs;
  Image frame;
  RecognitionPipeline pipe;

  PipelineFixture() {
    sim::Rng rng(41);
    for (int i = 0; i < 4; ++i) {
      refs.push_back(render_scene(rng, SceneParams{}));
      db.add_object("obj", refs.back());
    }
    sim::Rng mrng(43);
    frame = warp_image(refs[2], random_camera_motion(mrng));
  }
};

std::int64_t run_full_recognition_pipeline() {
  static PipelineFixture fx;
  sim::Rng r(47);
  keep(fx.pipe.recognize_frame(fx.frame, fx.db, r));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<arnet::benchjson::Case> cases = {
      {"RenderScene/320", [] { return run_render_scene(320); }},
      {"RenderScene/640", [] { return run_render_scene(640); }},
      {"FastDetect/320", [] { return run_fast_detect(320); }},
      {"FastDetect/640", [] { return run_fast_detect(640); }},
      {"FastDetect/1280", [] { return run_fast_detect(1280); }},
      {"BriefDescribe", run_brief_describe},
      {"PrivacyRedaction", run_privacy_redaction},
      {"MatchDescriptors", run_match_descriptors},
      {"RansacHomography", run_ransac_homography},
      {"RansacDistractor", run_ransac_distractor},
      {"FullRecognitionPipeline", run_full_recognition_pipeline},
  };
  return arnet::benchjson::run_json(argc, argv, "micro_vision", cases);
}
