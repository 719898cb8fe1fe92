// Helpers shared by the golden tests: 64-bit FNV-1a digests and a row
// renderer that prints doubles as hex floats, so string equality is bit
// equality and a failing comparison prints the new value.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace arnet::golden {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over raw bytes.
inline std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over the bytes of a 64-bit word (little-endian byte order).
inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Space-separated fields, doubles as hex floats.
class Row {
 public:
  Row& s(const std::string& v) { return put("%s", v.c_str()); }
  Row& u(std::uint64_t v) { return put("%llu", static_cast<unsigned long long>(v)); }
  Row& i(std::int64_t v) { return put("%lld", static_cast<long long>(v)); }
  Row& d(double v) { return put("%a", v); }
  Row& x(std::uint64_t v) { return put("%016llx", static_cast<unsigned long long>(v)); }
  std::string str() const { return out_; }

 private:
  template <typename T>
  Row& put(const char* fmt, T v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    if (!out_.empty()) out_ += ' ';
    out_ += buf;
    return *this;
  }
  std::string out_;
};

}  // namespace arnet::golden
