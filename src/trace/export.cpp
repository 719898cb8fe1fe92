#include "arnet/trace/export.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <system_error>
#include <utility>

#include "arnet/obs/export.hpp"

namespace arnet::trace {
namespace {

/// Microsecond timestamp with nanosecond fraction, Perfetto's unit.
void write_us(std::ostream& os, sim::Time ns) {
  os << ns / 1000 << "." << "0123456789"[(ns % 1000) / 100] << "0123456789"[(ns % 1000) / 10 % 10]
     << "0123456789"[ns % 10];
}

void write_common_args(std::ostream& os, const TraceEvent& e) {
  os << "\"trace\":" << e.trace_id << ",\"span\":" << e.span_id << ",\"uid\":" << e.uid
     << ",\"bytes\":" << e.size;
  if (e.reason != nullptr) {
    os << ",\"reason\":\"" << obs::json_escape(e.reason) << "\"";
  }
}

struct OpenSpan {
  sim::Time start = 0;
  TraceEvent open;
};

/// What duration span (if any) a kind opens, and the display name.
const char* opens_span(EventKind k) {
  switch (k) {
    case EventKind::kEnqueue: return "queued";
    case EventKind::kTxStart: return "flight";
    case EventKind::kComputeStart: return "compute";
    case EventKind::kFrameCapture: return "frame";
    case EventKind::kBatchStart: return "batch";
    default: return nullptr;
  }
}

/// Which open span a kind closes (matched against opens_span names).
const char* closes_span(EventKind k) {
  switch (k) {
    case EventKind::kDequeue:
    case EventKind::kTxStart:
    case EventKind::kDispatch: return "queued";
    case EventKind::kRx: return "flight";
    case EventKind::kComputeDone: return "compute";
    case EventKind::kBatchDone: return "batch";
    case EventKind::kFrameDone:
    case EventKind::kFrameMiss: return "frame";
    default: return nullptr;
  }
}

}  // namespace

void write_perfetto_json(const Tracer& tracer, std::ostream& os) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"arnet\"}}";
  for (EntityId id = 0; id < tracer.entity_count(); ++id) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << id + 1
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << obs::json_escape(tracer.entity_name(id)) << "\"}}";
  }

  auto emit_complete = [&](const OpenSpan& o, const char* name, sim::Time end) {
    sep();
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << o.open.entity + 1 << ",\"name\":\"" << name
       << "\",\"ts\":";
    write_us(os, o.start);
    os << ",\"dur\":";
    write_us(os, end - o.start);
    os << ",\"args\":{";
    write_common_args(os, o.open);
    os << "}}";
  };
  auto emit_instant = [&](const TraceEvent& e) {
    sep();
    os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << e.entity + 1 << ",\"name\":\""
       << to_string(e.kind) << "\",\"ts\":";
    write_us(os, e.time);
    os << ",\"args\":{";
    write_common_args(os, e);
    os << "}}";
  };

  // Open spans keyed by (entity, span name, uid); a kDrop closes whichever
  // span the packet was in at that entity.
  using Key = std::pair<std::pair<EntityId, std::string>, std::uint64_t>;
  std::map<Key, OpenSpan> open;
  for (const TraceEvent& e : tracer.collect()) {
    if (e.kind == EventKind::kDrop) {
      bool closed = false;
      for (const char* name : {"flight", "queued"}) {
        auto it = open.find({{e.entity, name}, e.uid});
        if (it != open.end()) {
          emit_complete(it->second, name, e.time);
          open.erase(it);
          closed = true;
          break;
        }
      }
      emit_instant(e);
      (void)closed;
      continue;
    }
    if (const char* closes = closes_span(e.kind)) {
      auto it = open.find({{e.entity, closes}, e.uid});
      if (it != open.end()) {
        emit_complete(it->second, closes, e.time);
        open.erase(it);
      } else if (opens_span(e.kind) == nullptr) {
        emit_instant(e);  // close without a surviving open (ring overwrote it)
      }
    } else if (opens_span(e.kind) == nullptr) {
      emit_instant(e);
    }
    if (const char* opens = opens_span(e.kind)) {
      open[{{e.entity, opens}, e.uid}] = OpenSpan{e.time, e};
    }
  }
  // Anything still open at export time shows as an instant so it is not lost.
  for (const auto& [key, o] : open) emit_instant(o.open);

  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"arnet-trace-v1\""
     << ",\"recorded\":" << tracer.total_recorded()
     << ",\"overflowed\":" << tracer.total_overflowed() << "}}\n";
}

namespace detail {

bool ensure_parent_dir(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  return !ec;
}

}  // namespace detail

bool write_perfetto_json_file(const Tracer& tracer, const std::string& path) {
  if (!detail::ensure_parent_dir(path)) return false;
  std::ofstream os(path);
  if (!os) return false;
  write_perfetto_json(tracer, os);
  return static_cast<bool>(os);
}

void write_flight_jsonl(const Tracer& tracer, std::ostream& os, const std::string& cause) {
  os << "{\"kind\":\"header\",\"schema\":\"arnet-trace-v1\",\"cause\":\""
     << obs::json_escape(cause) << "\",\"entities\":[";
  for (EntityId id = 0; id < tracer.entity_count(); ++id) {
    if (id != 0) os << ",";
    const EventRing& r = tracer.ring(id);
    os << "{\"id\":" << id << ",\"name\":\"" << obs::json_escape(tracer.entity_name(id))
       << "\",\"recorded\":" << r.recorded() << ",\"overflowed\":" << r.overflowed() << "}";
  }
  os << "]}\n";

  std::uint64_t written = 0;
  for (const TraceEvent& e : tracer.collect()) {
    os << "{\"kind\":\"event\",\"t_ns\":" << e.time << ",\"entity\":\""
       << obs::json_escape(tracer.entity_name(e.entity)) << "\",\"event\":\""
       << to_string(e.kind) << "\",\"trace\":" << e.trace_id << ",\"span\":" << e.span_id
       << ",\"uid\":" << e.uid << ",\"size\":" << e.size;
    if (e.reason != nullptr) {
      os << ",\"reason\":\"" << obs::json_escape(e.reason) << "\"";
    }
    os << "}\n";
    ++written;
  }
  os << "{\"kind\":\"end\",\"events\":" << written << "}\n";
}

bool write_flight_jsonl_file(const Tracer& tracer, const std::string& path,
                             const std::string& cause) {
  if (!detail::ensure_parent_dir(path)) return false;
  std::ofstream os(path);
  if (!os) return false;
  write_flight_jsonl(tracer, os, cause);
  return static_cast<bool>(os);
}

FrameBreakdown frame_breakdown(const Tracer& tracer, std::uint32_t trace_id) {
  FrameBreakdown b;
  bool have_capture = false, have_tx = false, have_deliver = false, have_compute = false,
       have_done = false;
  for (const TraceEvent& e : tracer.collect()) {
    if (e.trace_id != trace_id) continue;
    switch (e.kind) {
      case EventKind::kFrameCapture:
        if (!have_capture) {
          b.capture = e.time;
          b.frame_id = e.uid;
          have_capture = true;
        }
        break;
      case EventKind::kTxStart:
      case EventKind::kTx:
        if (!have_tx) {
          b.first_tx = e.time;
          have_tx = true;
        }
        break;
      case EventKind::kDeliver:
        // First delivery under the trace is the server receiving the frame
        // (the device-side delivery of the result comes later and is closed
        // by kFrameDone instead).
        if (!have_deliver) {
          b.uplink_done = e.time;
          have_deliver = true;
        }
        break;
      case EventKind::kComputeDone:
        if (!have_compute) {
          b.compute_done = e.time;
          have_compute = true;
        }
        break;
      case EventKind::kFrameDone:
      case EventKind::kFrameMiss:
        if (!have_done) {
          b.done = e.time;
          b.missed = e.kind == EventKind::kFrameMiss;
          have_done = true;
        }
        break;
      default: break;
    }
  }
  b.valid = have_capture && have_tx && have_deliver && have_compute && have_done;
  return b;
}

}  // namespace arnet::trace
