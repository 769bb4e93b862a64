// The human side of the report layer: a column-aligned text table that
// replaces the hand-rolled printf loops every bench used to carry. Build
// columns, append rows (cells are preformatted strings; the fmt helpers
// cover the common numeric renderings), print.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace reorder::report {

enum class Align { kLeft, kRight };

struct Column {
  std::string header;
  Align align{Align::kRight};
};

class Table {
 public:
  explicit Table(std::vector<Column> columns);
  /// Headers only: first column left-aligned (labels), the rest right.
  static Table with_headers(std::vector<std::string> headers);

  std::size_t columns() const { return columns_.size(); }
  std::size_t rows() const { return rows_.size(); }

  /// Appends a row; short rows are padded with empty cells, long rows
  /// throw std::invalid_argument.
  Table& row(std::vector<std::string> cells);

  /// Aligned rendering: header, dashed rule, rows. Two-space gutters.
  std::string to_string() const;
  void print(std::FILE* out = stdout) const;

 private:
  std::vector<Column> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// ---------------------------------------------------------- cell helpers

/// Fixed-point double ("0.123").
std::string fixed(double v, int precision = 3);
/// Fixed-point with an explicit sign ("+0.023").
std::string signed_fixed(double v, int precision = 3);
/// Percentage of a fraction ("12.5" for 0.125).
std::string percent(double fraction, int precision = 1);
std::string integer(std::int64_t v);

}  // namespace reorder::report
