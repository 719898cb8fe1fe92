// Micro-benchmarks of the vision substrate. These calibrate the
// desktop-reference VisionCosts used by the offloading cost model:
// device-class costs are these numbers times Table I's compute_scale.
// Like micro_transport, the binary runs either under google-benchmark
// (default) or in `--json <path>` mode emitting the arnet-bench-v1
// baseline consumed by CI.
#include <benchmark/benchmark.h>

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
  benchmark::DoNotOptimize(render_scene(rng, p));
  return 0;
}

std::int64_t run_fast_detect(int width) {
  static Image img320 = scene(320, 240);
  static Image img640 = scene(640, 480);
  static Image img1280 = scene(1280, 960);
  const Image& img = width == 320 ? img320 : width == 640 ? img640 : img1280;
  benchmark::DoNotOptimize(fast_detect(img, 20));
  return 0;
}

std::int64_t run_brief_describe() {
  static Image img = scene(320, 240);
  static auto feats = fast_detect(img, 20);
  benchmark::DoNotOptimize(brief_describe(img, feats));
  return 0;
}

std::int64_t run_privacy_redaction() {
  static std::vector<SensitiveRegion> truth;
  static Image img = [] {
    sim::Rng rng(5);
    return render_scene_with_sensitive(rng, SceneParams{}, 3, 2, truth);
  }();
  Image frame = img;
  benchmark::DoNotOptimize(apply_privacy(frame, PrivacyLevel::kBlurSensitive));
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
  benchmark::DoNotOptimize(match_descriptors(a.descriptors, b.descriptors));
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
  benchmark::DoNotOptimize(estimate_homography_ransac(pts, r));
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
  benchmark::DoNotOptimize(estimate_homography_ransac(pts, r));
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
  benchmark::DoNotOptimize(fx.pipe.recognize_frame(fx.frame, fx.db, r));
  return 0;
}

void BM_RenderScene(benchmark::State& state) {
  for (auto _ : state) run_render_scene(static_cast<int>(state.range(0)));
}
BENCHMARK(BM_RenderScene)->Arg(320)->Arg(640);

void BM_FastDetect(benchmark::State& state) {
  for (auto _ : state) run_fast_detect(static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FastDetect)->Arg(320)->Arg(640)->Arg(1280);

void BM_BriefDescribe(benchmark::State& state) {
  for (auto _ : state) run_brief_describe();
}
BENCHMARK(BM_BriefDescribe);

void BM_PrivacyRedaction(benchmark::State& state) {
  for (auto _ : state) run_privacy_redaction();
}
BENCHMARK(BM_PrivacyRedaction);

void BM_MatchDescriptors(benchmark::State& state) {
  for (auto _ : state) run_match_descriptors();
}
BENCHMARK(BM_MatchDescriptors);

void BM_RansacHomography(benchmark::State& state) {
  for (auto _ : state) run_ransac_homography();
}
BENCHMARK(BM_RansacHomography);

void BM_RansacDistractor(benchmark::State& state) {
  for (auto _ : state) run_ransac_distractor();
}
BENCHMARK(BM_RansacDistractor);

void BM_FullRecognitionPipeline(benchmark::State& state) {
  for (auto _ : state) run_full_recognition_pipeline();
}
BENCHMARK(BM_FullRecognitionPipeline);

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
  return arnet::benchjson::main_dispatch(argc, argv, "micro_vision", cases);
}
