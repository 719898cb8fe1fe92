// vision_recognition: the pixel pipeline. Set-up renders kObjects reference
// scenes into a vision::ObjectDatabase (its descriptors are larger than a
// core's L2, so matching cost follows the working set) and makes each
// frame of the round from a seeded object: render -> random_camera_motion
// warp -> add_noise. One op runs RecognitionPipeline::extract + recognize
// on one frame against the whole database. Pure CPU: no simulator, no
// network.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arnet/runner/experiment.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/vision/pipeline.hpp"
#include "arnet/vision/synth.hpp"
#include "harness.hpp"

namespace arbench {
namespace {

using namespace arnet;

constexpr int kObjects = 280;  ///< ~245 descriptors each: 2.1 MiB, over a 2 MiB L2
constexpr std::size_t kFrames = 10;
constexpr double kNoiseSigma = 3.0;
/// VGA scenes: ~4x the corners of the 320x240 default.
const vision::SceneParams kScene{640, 480, 96, 0.0};

struct FrameSlot {
  std::optional<vision::RecognitionResult> result;
  int features = 0;
};

void check_frame(const FrameSlot& f, int truth, OpRecord& rec) {
  Digest d;
  d.i(f.features).i(f.result ? 1 : 0);
  if (f.result) {
    const vision::RecognitionResult& r = *f.result;
    d.i(r.object_id).s(r.object_name).i(r.matches).i(r.inliers).i(r.frame_features);
    d.i(r.feature_upload_bytes);
    for (double v : r.pose.m) d.f(v);
  }
  rec.digest = d.value();
  if (f.features <= 0) {
    rec.violation = "vision: no feature extracted";
  } else if (f.result && f.result->object_id != truth) {
    rec.violation = "vision: recognized the wrong object";
  }
}

class VisionRecognition : public Workload {
 public:
  explicit VisionRecognition(std::uint64_t root) : root_(root) {}

  void setup(SpanLog* spans) override {
    Span s(spans, "setup.inputs", "bench");
    std::vector<vision::Image> refs;
    refs.reserve(kObjects);
    db_ = vision::ObjectDatabase{};
    {
      Span b(spans, "vision.db_build", "vision");
      const std::uint64_t db_root = runner::derive_seed(root_, 0xDB);
      for (int k = 0; k < kObjects; ++k) {
        sim::Rng rng(runner::derive_seed(db_root, static_cast<std::uint64_t>(k)));
        refs.push_back(vision::render_scene(rng, kScene));
        db_.add_object("obj" + std::to_string(k), refs.back());
      }
      db_bytes_ = 0;
      for (int k = 0; k < kObjects; ++k) {
        db_bytes_ += static_cast<double>(db_.entry(k).described.descriptors.size() *
                                         sizeof(vision::Descriptor));
      }
    }
    frames_.clear();
    truth_.clear();
    {
      Span f(spans, "vision.make_frames", "vision");
      for (std::size_t i = 0; i < kFrames; ++i) {
        sim::Rng rng(runner::derive_seed(root_, i));
        const int obj = static_cast<int>(rng.uniform_int(0, kObjects - 1));
        vision::Image frame =
            vision::warp_image(refs[static_cast<std::size_t>(obj)], vision::random_camera_motion(rng));
        vision::add_noise(frame, rng, kNoiseSigma);
        frames_.push_back(std::move(frame));
        truth_.push_back(obj);
      }
    }
    slots_.assign(kFrames, {});
    FrameSlot warm;  // warm-up: one recognition
    recognize(0, root_, warm, nullptr);
  }

  std::size_t ops() const override { return kFrames; }

  OpRecord run_op(std::size_t i, std::uint64_t seed, SpanLog* spans) override {
    OpRecord rec;
    rec.kind = "vision";
    FrameSlot& slot = slots_[i];
    recognize(i, seed, slot, spans);
    check_frame(slot, truth_[i], rec);
    rec.counts["vision.frames"] = 1;
    rec.counts["vision.features"] = slot.features;
    rec.counts["vision.recognized"] = slot.result ? 1 : 0;
    if (i == 0) rec.counts["vision.db_bytes"] = db_bytes_;  // once per round
    return rec;
  }

  OpRecord corrupted(std::size_t i) const override {
    OpRecord rec;
    FrameSlot f = slots_[i];
    if (!f.result) f.result = vision::RecognitionResult{};
    f.result->object_id = truth_[i] + 1;  // the wrong object
    check_frame(f, truth_[i], rec);
    return rec;
  }

 private:
  void recognize(std::size_t i, std::uint64_t seed, FrameSlot& slot, SpanLog* spans) const {
    sim::Rng rng(seed);  // RANSAC sampling stream
    vision::DescribedFeatures feats;
    {
      Span s(spans, "vision.extract", "vision");
      feats = pipeline_.extract(frames_[i]);
    }
    slot.features = static_cast<int>(feats.features.size());
    Span s(spans, "vision.recognize", "vision");
    slot.result = pipeline_.recognize(feats, db_, rng);
  }

  std::uint64_t root_;
  vision::RecognitionPipeline pipeline_;
  vision::ObjectDatabase db_;
  std::vector<vision::Image> frames_;
  std::vector<int> truth_;
  std::vector<FrameSlot> slots_;
  double db_bytes_ = 0;  ///< descriptor working set of the database
};

}  // namespace

std::unique_ptr<Workload> make_vision_recognition(std::uint64_t root) {
  return std::make_unique<VisionRecognition>(root);
}

}  // namespace arbench
