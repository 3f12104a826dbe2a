// DataFrame: named typed columns with pandas-style relational operations.
// The `dataframe` pipeline backend runs kernels 1-2 through these
// operations (sort_values, groupby_count).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "df/column.hpp"

namespace prpb::df {

class DataFrame {
 public:
  DataFrame() = default;

  /// Appends a column; all columns must share the same length.
  void add_column(const std::string& name, Column column);

  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] std::size_t num_columns() const { return columns_.size(); }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] bool has_column(const std::string& name) const;

  [[nodiscard]] const Column& col(const std::string& name) const;
  Column& col(const std::string& name);
  [[nodiscard]] const Column& col_at(std::size_t i) const {
    return columns_[i];
  }

  /// Stable multi-key sort; returns a new frame (pandas sort_values).
  [[nodiscard]] DataFrame sort_values(
      const std::vector<std::string>& by) const;

  /// Gather rows by index.
  [[nodiscard]] DataFrame take(const std::vector<std::size_t>& indices) const;

  /// Group by `keys` (int64 columns), emitting one row per distinct key
  /// combination with a `count_name` int64 column of group sizes. Output is
  /// sorted by key. (pandas groupby(...).size())
  [[nodiscard]] DataFrame groupby_count(const std::vector<std::string>& keys,
                                        const std::string& count_name) const;

 private:
  [[nodiscard]] std::size_t column_index(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<Column> columns_;
  std::size_t rows_ = 0;
};

}  // namespace prpb::df
