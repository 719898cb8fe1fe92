#include "arnet/obs/export.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <istream>
#include <map>
#include <ostream>
#include <vector>

namespace arnet::obs {

std::string fmt_double(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

namespace {

void write_id(std::ostream& os, const char* kind, const MetricId& id) {
  os << "{\"kind\":\"" << kind << "\",\"name\":\"" << json_escape(id.name)
     << "\",\"entity\":\"" << json_escape(id.entity) << "\"";
}

// ------------------------------------------------------------- line parser
//
// A minimal parser for the flat objects write_jsonl emits: string values,
// numeric values, and arrays of [number, number] pairs. Anything else is a
// malformed line.

struct ParsedLine {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
  /// Arrays of fixed-arity number tuples ([[a,b],...] bucket/point pairs,
  /// [[a,b,c],...] exemplar triples). Arity is per-element as parsed.
  std::map<std::string, std::vector<std::vector<double>>> lists;
};

struct Cursor {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
  }
  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
};

bool parse_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (c.p < c.end) {
    char ch = *c.p++;
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.p >= c.end) return false;
      char esc = *c.p++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        default: return false;  // \uXXXX not emitted by the writer
      }
    } else {
      out += ch;
    }
  }
  return false;
}

bool parse_number(Cursor& c, double& out) {
  c.skip_ws();
  char* after = nullptr;
  out = std::strtod(c.p, &after);
  if (after == c.p) return false;
  c.p = after;
  return true;
}

bool parse_tuple_list(Cursor& c, std::vector<std::vector<double>>& out) {
  if (!c.eat('[')) return false;
  out.clear();
  if (c.eat(']')) return true;  // empty list
  do {
    if (!c.eat('[')) return false;
    std::vector<double> tuple;
    do {
      double v = 0;
      if (!parse_number(c, v)) return false;
      tuple.push_back(v);
    } while (c.eat(','));
    if (!c.eat(']') || tuple.empty()) return false;
    out.push_back(std::move(tuple));
  } while (c.eat(','));
  return c.eat(']');
}

bool parse_line(const std::string& line, ParsedLine& out) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) return false;
  if (c.eat('}')) return true;
  do {
    std::string key;
    if (!parse_string(c, key) || !c.eat(':')) return false;
    c.skip_ws();
    if (c.peek('"')) {
      std::string v;
      if (!parse_string(c, v)) return false;
      out.strings[key] = v;
    } else if (c.peek('[')) {
      std::vector<std::vector<double>> v;
      if (!parse_tuple_list(c, v)) return false;
      out.lists[key] = std::move(v);
    } else {
      double v = 0;
      if (!parse_number(c, v)) return false;
      out.numbers[key] = v;
    }
  } while (c.eat(','));
  return c.eat('}');
}

bool has_keys(const ParsedLine& l, std::initializer_list<const char*> strs,
              std::initializer_list<const char*> nums) {
  for (const char* k : strs) {
    if (l.strings.find(k) == l.strings.end()) return false;
  }
  for (const char* k : nums) {
    if (l.numbers.find(k) == l.numbers.end()) return false;
  }
  return true;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void write_jsonl(const MetricsRegistry& reg, std::ostream& os) {
  os << "{\"kind\":\"meta\",\"schema\":\"arnet-obs-v2\"}\n";
  for (const auto& [id, c] : reg.counters()) {
    write_id(os, "counter", id);
    os << ",\"value\":" << c.value() << "}\n";
  }
  for (const auto& [id, g] : reg.gauges()) {
    write_id(os, "gauge", id);
    os << ",\"value\":" << fmt_double(g.value()) << "}\n";
  }
  for (const auto& [id, h] : reg.histograms()) {
    write_id(os, "histogram", id);
    // The raw accumulated sum, not mean*count: the divide-then-multiply
    // round trip can drift by ULPs, which breaks the bit-exact export ->
    // import -> merge contract the cross-shard property test pins.
    os << ",\"count\":" << h.count() << ",\"sum\":" << fmt_double(h.sum())
       << ",\"min\":" << fmt_double(h.min()) << ",\"max\":" << fmt_double(h.max())
       << ",\"mean\":" << fmt_double(h.mean()) << ",\"p50\":" << fmt_double(h.p50())
       << ",\"p90\":" << fmt_double(h.p90()) << ",\"p99\":" << fmt_double(h.p99())
       << ",\"buckets\":[";
    bool first = true;
    for (const auto& [idx, n] : h.nonzero_buckets()) {
      if (!first) os << ",";
      first = false;
      os << "[" << idx << "," << n << "]";
    }
    os << "]";
    if (!h.exemplars().empty()) {
      os << ",\"exemplars\":[";
      first = true;
      for (const auto& [idx, ex] : h.exemplars()) {
        if (!first) os << ",";
        first = false;
        os << "[" << idx << "," << ex.trace_id << "," << fmt_double(ex.value) << "]";
      }
      os << "]";
    }
    os << "}\n";
  }
  for (const auto& [id, ts] : reg.recorder().all()) {
    write_id(os, "series", id);
    os << ",\"points\":[";
    bool first = true;
    for (const auto& [t, v] : ts.points()) {
      if (!first) os << ",";
      first = false;
      os << "[" << t << "," << fmt_double(v) << "]";
    }
    os << "]}\n";
  }
}

bool read_jsonl(std::istream& is, MetricsRegistry& out) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ParsedLine l;
    if (!parse_line(line, l)) return false;
    if (!has_keys(l, {"kind"}, {})) return false;
    const std::string& kind = l.strings["kind"];
    if (kind == "meta") {
      // v2 header. v1 files have none (the reader accepts both); anything
      // claiming a non-obs schema is not ours.
      auto sit = l.strings.find("schema");
      if (sit == l.strings.end() || sit->second.rfind("arnet-obs-", 0) != 0) return false;
      continue;
    }
    if (!has_keys(l, {"name", "entity"}, {})) return false;
    const std::string& name = l.strings["name"];
    const std::string& entity = l.strings["entity"];
    if (kind == "counter") {
      if (!has_keys(l, {}, {"value"})) return false;
      out.counter(name, entity).add(static_cast<std::int64_t>(l.numbers["value"]));
    } else if (kind == "gauge") {
      if (!has_keys(l, {}, {"value"})) return false;
      out.gauge(name, entity).set(l.numbers["value"]);
    } else if (kind == "histogram") {
      if (!has_keys(l, {}, {"sum", "min", "max"})) return false;
      auto it = l.lists.find("buckets");
      if (it == l.lists.end()) return false;
      std::vector<std::pair<int, std::int64_t>> buckets;
      for (const auto& tuple : it->second) {
        if (tuple.size() != 2) return false;
        buckets.emplace_back(static_cast<int>(tuple[0]),
                             static_cast<std::int64_t>(tuple[1]));
      }
      Histogram& h = out.histogram(name, entity);
      h.restore(buckets, l.numbers["sum"], l.numbers["min"], l.numbers["max"]);
      auto ex = l.lists.find("exemplars");
      if (ex != l.lists.end()) {
        for (const auto& tuple : ex->second) {
          if (tuple.size() != 3) return false;
          h.note_exemplar(static_cast<int>(tuple[0]),
                          static_cast<std::uint32_t>(tuple[1]), tuple[2]);
        }
      }
    } else if (kind == "series") {
      auto it = l.lists.find("points");
      if (it == l.lists.end()) return false;
      sim::TimeSeries& ts = out.recorder().series(name, entity);
      for (const auto& tuple : it->second) {
        if (tuple.size() != 2) return false;
        ts.add(static_cast<sim::Time>(tuple[0]), tuple[1]);
      }
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace arnet::obs
