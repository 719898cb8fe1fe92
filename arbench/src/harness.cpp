#include "harness.hpp"

#include <algorithm>
#include <cstring>

#include "arnet/obs/export.hpp"

namespace arbench {

Digest& Digest::u(std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (v >> (8 * b)) & 0xFF;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::f(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return u(bits);
}

Digest& Digest::s(std::string_view v) {
  u(v.size());
  for (char c : v) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

int SpanLog::open(const char* name, const char* layer) {
  SpanRecord r;
  r.name = name;
  r.layer = layer;
  r.start_ms = ms_between(origin_, Clock::now());
  r.parent = open_.empty() ? -1 : open_.back();
  r.op = op_;
  r.round = round_;
  spans_.push_back(r);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = ms_between(origin_, Clock::now());
  open_.pop_back();
}

std::map<std::string, std::pair<double, double>> SpanLog::layer_times() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_ms - spans_[i].start_ms;
    auto& [total, self] = out[spans_[i].layer];
    total += d;
    self += d - child_ms[i];
  }
  return out;
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

void SpanLog::write_jsonl(std::ostream& os, const std::string& workload) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << "{\"workload\": \"" << arnet::obs::json_escape(workload) << "\", \"id\": " << i
       << ", \"parent\": " << s.parent << ", \"round\": " << s.round << ", \"op\": " << s.op
       << ", \"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
       << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms << "}\n";
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, std::size_t beyond) {
  if (v.empty()) return 0.0;
  const double mid = median(v);
  std::sort(v.begin(), v.end());
  return std::max(mid, v.size() > beyond ? v[v.size() - 1 - beyond] : v.back());
}

}  // namespace arbench
