#include "arnet/core/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace arnet::core {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto rule = [&] {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      os << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

std::string fmt(double v, int decimals) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(decimals) << v;
  return ss.str();
}

std::string fmt_mbps(double bps, int decimals) { return fmt(bps / 1e6, decimals) + " Mb/s"; }

std::string fmt_ms(double ms, int decimals) { return fmt(ms, decimals) + " ms"; }

FrameCells fmt_frames(const sim::FrameLedger& ledger, int miss_decimals) {
  if (ledger.results == 0) return {"n/a", "n/a", "n/a"};
  return {fmt_ms(ledger.latency_ms.median()), fmt_ms(ledger.latency_ms.percentile(0.95)),
          fmt(ledger.miss_rate() * 100, miss_decimals) + " %"};
}

}  // namespace arnet::core
