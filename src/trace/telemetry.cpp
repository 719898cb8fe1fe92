#include "arnet/trace/telemetry.hpp"

#include "arnet/slo/slo.hpp"
#include "arnet/trace/flight.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/trace.hpp"

namespace arnet::trace {

void Telemetry::wire() {
  if (tracer == nullptr) sampler = nullptr;
  if (sampler) tracer->set_sink(sampler);
  if (slo && flight) {
    // A burn-rate alert dumps the flight timeline: the "why" behind the
    // alert is exactly what the rings still hold.
    FlightRecorder* f = flight;
    slo->set_alert_callback([f](const slo::AlertEvent& e) { f->dump(to_string(e.state)); });
  }
}

}  // namespace arnet::trace
