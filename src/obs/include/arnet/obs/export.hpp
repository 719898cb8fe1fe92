#pragma once

#include <iosfwd>
#include <string>

#include "arnet/obs/registry.hpp"

namespace arnet::obs {

/// JSONL export: one self-describing JSON object per line, so consumers can
/// stream-filter with grep/jq and partial files stay parseable. Schema
/// (`arnet-obs-v2`): a leading meta line, then one of:
///
///   {"kind":"meta","schema":"arnet-obs-v2"}
///   {"kind":"counter","name":N,"entity":E,"value":I}
///   {"kind":"gauge","name":N,"entity":E,"value":F}
///   {"kind":"histogram","name":N,"entity":E,"count":I,"sum":F,"min":F,
///    "max":F,"mean":F,"p50":F,"p90":F,"p99":F,"buckets":[[idx,count],...]
///    [,"exemplars":[[idx,trace_id,value],...]]}
///   {"kind":"series","name":N,"entity":E,"points":[[t_ns,value],...]}
///
/// Histogram lines carry both the derived summary (for humans and plotting
/// scripts) and the raw buckets (so a re-import is lossless up to bucket
/// resolution and histograms stay mergeable downstream); `sum` is the raw
/// accumulated sum, bit-exact through the round trip. The optional
/// exemplars join buckets to retained trace ids (see obs::Exemplar). The
/// reader also accepts v1 files (no meta line, no exemplars).
void write_jsonl(const MetricsRegistry& reg, std::ostream& os);

/// Parse a `write_jsonl` document back into `out`, merging into whatever it
/// already holds. Returns false (and stops) on the first malformed line.
/// This is deliberately a reader for the schema above, not a general JSON
/// parser.
bool read_jsonl(std::istream& is, MetricsRegistry& out);

/// JSON string escaping (exposed for the bench JSON emitter).
std::string json_escape(const std::string& s);

/// Shortest round-trip formatting of a double (std::to_chars), so an
/// export -> import cycle reproduces values bit-exactly and equal values
/// print equal bytes in every JSONL export.
std::string fmt_double(double v);

}  // namespace arnet::obs
