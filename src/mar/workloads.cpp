#include "arnet/mar/workloads.hpp"

#include <array>
#include <stdexcept>

namespace arnet::mar {

const char* to_string(MarUseCase u) {
  switch (u) {
    case MarUseCase::kOrientation: return "Orientation";
    case MarUseCase::kVirtualMemorial: return "Virtual memorial";
    case MarUseCase::kGaming: return "Video gaming";
    case MarUseCase::kArt: return "Art";
  }
  return "?";
}

namespace {

WorkloadProfile make_orientation() {
  WorkloadProfile w;
  w.use_case = MarUseCase::kOrientation;
  w.name = "Orientation";
  w.figure_example = "Yelp Monocle";
  VideoModel v;  // hold-up-and-look browsing: modest feed
  v.width = 960;
  v.height = 540;
  v.fps = 15;
  w.video = v;
  w.sensors.sample_hz = 50.0;  // compass + GPS matter a lot here
  w.recognition_hz = 2.0;
  w.work_per_frame = sim::milliseconds(4);
  w.db_request_hz = 1.0;
  w.db_object_bytes = 50'000;  // POI cards
  w.deadline = sim::milliseconds(150);  // walking pace tolerance
  w.recommended = OffloadStrategy::kGlimpse;
  return w;
}

WorkloadProfile make_memorial() {
  WorkloadProfile w;
  w.use_case = MarUseCase::kVirtualMemorial;
  w.name = "Virtual memorial";
  w.figure_example = "Frontera de los Muertos";
  w.video = VideoModel::glasses_vga15();
  w.recognition_hz = 0.5;  // anchors are static landmarks
  w.work_per_frame = sim::milliseconds(3);
  w.db_request_hz = 0.2;
  w.db_object_bytes = 400'000;  // rich 3D memorial assets
  w.deadline = sim::milliseconds(200);
  w.recommended = OffloadStrategy::kGlimpse;
  return w;
}

WorkloadProfile make_gaming() {
  WorkloadProfile w;
  w.use_case = MarUseCase::kGaming;
  w.name = "Video gaming";
  w.figure_example = "pulzAR";
  VideoModel v;
  v.width = 1280;
  v.height = 720;
  v.fps = 60;
  v.gop = 12;
  w.video = v;
  w.sensors.sample_hz = 200.0;  // controller/IMU at game rates
  w.metadata.hz = 20.0;         // game state
  w.recognition_hz = 10.0;
  w.work_per_frame = sim::milliseconds(6);
  w.db_request_hz = 0.1;
  w.db_object_bytes = 20'000;
  w.deadline = sim::milliseconds(50);  // the harshest budget
  // A phone cannot even extract features inside 50 ms; ship frames.
  w.recommended = OffloadStrategy::kFullOffload;
  return w;
}

WorkloadProfile make_art() {
  WorkloadProfile w;
  w.use_case = MarUseCase::kArt;
  w.name = "Art";
  w.figure_example = "Yunuene";
  VideoModel v;
  v.width = 1280;
  v.height = 720;
  v.fps = 30;
  w.video = v;
  w.recognition_hz = 1.0;  // one canvas at a time
  w.work_per_frame = sim::milliseconds(5);
  w.db_request_hz = 0.3;
  w.db_object_bytes = 500'000;  // animated artwork overlays
  w.deadline = sim::milliseconds(100);
  w.recommended = OffloadStrategy::kAdaptive;
  return w;
}

}  // namespace

const WorkloadProfile& workload(MarUseCase u) {
  static const std::array<WorkloadProfile, 4> all = {
      make_orientation(), make_memorial(), make_gaming(), make_art()};
  switch (u) {
    case MarUseCase::kOrientation: return all[0];
    case MarUseCase::kVirtualMemorial: return all[1];
    case MarUseCase::kGaming: return all[2];
    case MarUseCase::kArt: return all[3];
  }
  throw std::invalid_argument("unknown use case");
}

AppParams WorkloadProfile::app_params() const {
  AppParams a;
  a.fps = video.fps;
  a.work_per_frame = work_per_frame;
  a.deadline = deadline;
  a.upload_bytes_per_frame = video.inter_frame_bytes();
  return a;
}

OffloadConfig WorkloadProfile::offload_config() const {
  OffloadConfig cfg;
  cfg.strategy = recommended;
  cfg.video = video;
  cfg.sensors = sensors;
  cfg.metadata = metadata;
  cfg.deadline = deadline;
  if (recommended == OffloadStrategy::kGlimpse) {
    cfg.glimpse_adaptive = true;
    // Low recognition cadence -> calm trigger.
    cfg.glimpse_motion_level = recognition_hz >= 2.0 ? 0.08 : 0.03;
  }
  return cfg;
}

}  // namespace arnet::mar
