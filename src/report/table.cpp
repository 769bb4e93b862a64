#include "report/table.hpp"

#include <algorithm>
#include <stdexcept>

namespace reorder::report {

Table::Table(std::vector<Column> columns) : columns_{std::move(columns)} {
  if (columns_.empty()) throw std::invalid_argument{"Table: needs at least one column"};
}

Table Table::with_headers(std::vector<std::string> headers) {
  std::vector<Column> columns;
  columns.reserve(headers.size());
  for (std::size_t i = 0; i < headers.size(); ++i) {
    columns.push_back(Column{std::move(headers[i]), i == 0 ? Align::kLeft : Align::kRight});
  }
  return Table{std::move(columns)};
}

Table& Table::row(std::vector<std::string> cells) {
  if (cells.size() > columns_.size()) {
    throw std::invalid_argument{"Table: row has more cells than columns"};
  }
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].header.size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = cells[c];
      const std::size_t pad = widths[c] - cell.size();
      if (c > 0) out += "  ";
      if (columns_[c].align == Align::kRight) out.append(pad, ' ');
      out += cell;
      // Trailing pad only matters between columns, not at line end.
      if (columns_[c].align == Align::kLeft && c + 1 < columns_.size()) out.append(pad, ' ');
    }
    out += '\n';
  };

  std::vector<std::string> headers;
  headers.reserve(columns_.size());
  for (const auto& col : columns_) headers.push_back(col.header);
  emit_row(headers);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w;
  out.append(total + 2 * (columns_.size() - 1), '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

void Table::print(std::FILE* out) const {
  const std::string rendered = to_string();
  std::fwrite(rendered.data(), 1, rendered.size(), out);
}

std::string fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string signed_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.*f", precision, v);
  return buf;
}

std::string percent(double fraction, int precision) {
  return fixed(100.0 * fraction, precision);
}

std::string integer(std::int64_t v) { return std::to_string(v); }

}  // namespace reorder::report
