// Typed columns for the PRPB dataframe engine ("pandas niche" backend).
// A column is a contiguous typed vector behind a dynamic type tag, so every
// operation dispatches on dtype at runtime — columnar and vectorized, but
// with the per-operation genericity a dataframe stack pays.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace prpb::df {

enum class DType { kInt64, kFloat64, kString };

const char* dtype_name(DType t);

class Column {
 public:
  Column() : data_(std::vector<std::int64_t>{}) {}
  /*implicit*/ Column(std::vector<std::int64_t> v) : data_(std::move(v)) {}
  /*implicit*/ Column(std::vector<double> v) : data_(std::move(v)) {}
  /*implicit*/ Column(std::vector<std::string> v) : data_(std::move(v)) {}

  [[nodiscard]] DType dtype() const;
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const std::vector<std::int64_t>& i64() const;
  [[nodiscard]] const std::vector<double>& f64() const;
  [[nodiscard]] const std::vector<std::string>& str() const;
  std::vector<std::int64_t>& i64();
  std::vector<double>& f64();
  std::vector<std::string>& str();

  /// New column containing rows at `indices` (gather).
  [[nodiscard]] Column take(const std::vector<std::size_t>& indices) const;

  /// Cell rendered as text (the generic formatting path).
  [[nodiscard]] std::string cell_str(std::size_t row) const;

  /// Three-way comparison of two cells in the same column.
  [[nodiscard]] int compare(std::size_t a, std::size_t b) const;

 private:
  std::variant<std::vector<std::int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
};

}  // namespace prpb::df
