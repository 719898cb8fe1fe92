#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "arnet/sim/stats.hpp"

namespace arnet::core {

/// Fixed-width ASCII table used by every bench harness to print the
/// reproduced paper tables/figures in a uniform format.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Number formatting helpers for table cells.
std::string fmt(double v, int decimals = 2);
std::string fmt_mbps(double bps, int decimals = 2);
std::string fmt_ms(double ms, int decimals = 1);

/// A frame ledger's median, p95 and miss-rate cells, all "n/a" when no frame
/// completed (0.0 ms and 0.0 % would read as a perfect session).
struct FrameCells {
  std::string median, p95, miss;
};
FrameCells fmt_frames(const sim::FrameLedger& ledger, int miss_decimals = 1);

}  // namespace arnet::core
