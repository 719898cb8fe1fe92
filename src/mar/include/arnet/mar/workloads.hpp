#pragma once

#include <string>

#include "arnet/mar/cost_model.hpp"
#include "arnet/mar/offload.hpp"
#include "arnet/mar/traffic.hpp"

namespace arnet::mar {

/// The four MAR use cases of the paper's Figure 1, as workload profiles:
/// 1. Orientation (Yelp-style browsing), 2. Virtual memorial (Layar-style
/// static overlays), 3. Video gaming (pulzAR-style), 4. Art installations.
/// Each differs in frame rates, recognition cadence, database appetite, and
/// latency tolerance — which is exactly why §VI-A insists on classful
/// traffic rather than one-size-fits-all transport.
enum class MarUseCase {
  kOrientation,
  kVirtualMemorial,
  kGaming,
  kArt,
};

const char* to_string(MarUseCase u);

struct WorkloadProfile {
  MarUseCase use_case{};
  std::string name;
  std::string figure_example;  ///< the app Figure 1 shows
  VideoModel video;
  SensorModel sensors;
  MetadataModel metadata;
  double recognition_hz = 1.0;       ///< fresh scene recognitions needed/s
  /// Desktop-reference per-frame vision work; gaming scenes (many dynamic
  /// objects) cost more than a static memorial anchor.
  sim::Time work_per_frame = sim::milliseconds(4);
  double db_request_hz = 0.5;        ///< POI/asset fetches per second
  std::int64_t db_object_bytes = 0;  ///< size of one fetched overlay asset
  sim::Time deadline = kFrameDeadline;
  OffloadStrategy recommended = OffloadStrategy::kAdaptive;

  /// The §III-B AppParams this workload induces (for the cost model).
  AppParams app_params() const;

  /// Configure an OffloadSession for this workload.
  OffloadConfig offload_config() const;
};

const WorkloadProfile& workload(MarUseCase u);

}  // namespace arnet::mar
