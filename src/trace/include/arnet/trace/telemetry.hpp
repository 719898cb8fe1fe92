#pragma once

namespace arnet::obs {
class MetricsRegistry;
}

namespace arnet::slo {
class SloTracker;
}

namespace arnet::trace {

class FlightRecorder;
class TailSampler;
class Tracer;

/// The observer set of one simulated world, passed as one value. Every
/// member is optional, owned by the caller, and must outlive the world:
///   metrics  instruments publish into it;
///   tracer   components record span events into it;
///   sampler  tail sampler on the tracer's record stream;
///   slo      frame-deadline burn-rate tracker;
///   flight   dumps the tracer's rings when `slo` raises an alert. It
///            installs a process-global failure hook, so attach one only
///            in serial runs.
/// Observers never perturb the world: a run is bit-identical with any
/// subset attached.
struct Telemetry {
  obs::MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  TailSampler* sampler = nullptr;
  slo::SloTracker* slo = nullptr;
  FlightRecorder* flight = nullptr;

  /// Join the observers to each other: the sampler becomes the tracer's
  /// sink (without a tracer there is nothing to sample, so `sampler` is
  /// cleared) and an SLO alert dumps the flight recorder. The world that
  /// consumes the bundle calls this on its copy, once, before it runs.
  void wire();
};

}  // namespace arnet::trace
