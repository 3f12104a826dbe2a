#include "df/column.hpp"

#include <sstream>

#include "util/error.hpp"

namespace prpb::df {

const char* dtype_name(DType t) {
  switch (t) {
    case DType::kInt64: return "int64";
    case DType::kFloat64: return "float64";
    case DType::kString: return "string";
  }
  return "?";
}

DType Column::dtype() const {
  if (std::holds_alternative<std::vector<std::int64_t>>(data_))
    return DType::kInt64;
  if (std::holds_alternative<std::vector<double>>(data_))
    return DType::kFloat64;
  return DType::kString;
}

std::size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

namespace {
[[noreturn]] void wrong_type(DType wanted, DType got) {
  throw util::Error(std::string("column type error: expected ") +
                    dtype_name(wanted) + ", got " + dtype_name(got));
}
}  // namespace

const std::vector<std::int64_t>& Column::i64() const {
  if (dtype() != DType::kInt64) wrong_type(DType::kInt64, dtype());
  return std::get<std::vector<std::int64_t>>(data_);
}
const std::vector<double>& Column::f64() const {
  if (dtype() != DType::kFloat64) wrong_type(DType::kFloat64, dtype());
  return std::get<std::vector<double>>(data_);
}
const std::vector<std::string>& Column::str() const {
  if (dtype() != DType::kString) wrong_type(DType::kString, dtype());
  return std::get<std::vector<std::string>>(data_);
}
std::vector<std::int64_t>& Column::i64() {
  if (dtype() != DType::kInt64) wrong_type(DType::kInt64, dtype());
  return std::get<std::vector<std::int64_t>>(data_);
}
std::vector<double>& Column::f64() {
  if (dtype() != DType::kFloat64) wrong_type(DType::kFloat64, dtype());
  return std::get<std::vector<double>>(data_);
}
std::vector<std::string>& Column::str() {
  if (dtype() != DType::kString) wrong_type(DType::kString, dtype());
  return std::get<std::vector<std::string>>(data_);
}

Column Column::take(const std::vector<std::size_t>& indices) const {
  return std::visit(
      [&indices](const auto& v) -> Column {
        std::remove_cvref_t<decltype(v)> out;
        out.reserve(indices.size());
        for (const std::size_t i : indices) out.push_back(v[i]);
        return Column(std::move(out));
      },
      data_);
}

std::string Column::cell_str(std::size_t row) const {
  // Generic formatting path: stream insertion with locale machinery, the
  // per-cell cost profile of a dataframe stack's text writer.
  std::ostringstream os;
  switch (dtype()) {
    case DType::kInt64:
      os << i64()[row];
      return os.str();
    case DType::kFloat64:
      os << f64()[row];
      return os.str();
    case DType::kString:
      return str()[row];
  }
  throw util::Error("cell_str: unknown dtype");
}

int Column::compare(std::size_t a, std::size_t b) const {
  switch (dtype()) {
    case DType::kInt64: {
      const auto& v = i64();
      return v[a] < v[b] ? -1 : (v[a] > v[b] ? 1 : 0);
    }
    case DType::kFloat64: {
      const auto& v = f64();
      return v[a] < v[b] ? -1 : (v[a] > v[b] ? 1 : 0);
    }
    case DType::kString: {
      const auto& v = str();
      return v[a].compare(v[b]) < 0 ? -1 : (v[a] == v[b] ? 0 : 1);
    }
  }
  throw util::Error("compare: unknown dtype");
}

}  // namespace prpb::df
