#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace prpb::sparse {
namespace {

std::uint64_t checked_cols(std::uint64_t cols) {
  util::require(cols <= kMaxCols,
                "CsrMatrix: more than 2^32 columns (scale > 32)");
  return cols;
}

}  // namespace

CsrMatrix::CsrMatrix(std::uint64_t rows, std::uint64_t cols)
    : rows_(rows), cols_(checked_cols(cols)), row_ptr_(rows + 1, 0) {}

CsrBuilder::CsrBuilder(std::uint64_t rows, std::uint64_t cols,
                       std::size_t reserve)
    : rows_(rows), cols_(checked_cols(cols)), row_ptr_(rows + 1, 0) {
  col_idx_.reserve(reserve);
  values_.reserve(reserve);
}

void CsrBuilder::close_row() {
  if (!row_ordered_) {
    unordered_.clear();
    for (std::size_t k = row_start_; k < col_idx_.size(); ++k)
      unordered_.emplace_back(col_idx_[k], values_[k]);
    std::sort(unordered_.begin(), unordered_.end());
    std::size_t end = row_start_;
    for (const auto& [col, value] : unordered_) {
      if (end > row_start_ && col_idx_[end - 1] == col) {
        values_[end - 1] += value;
      } else {
        col_idx_[end] = col;
        values_[end++] = value;
      }
    }
    col_idx_.resize(end);
    values_.resize(end);
  }
  row_ordered_ = true;
  row_start_ = row_ptr_[++row_] = col_idx_.size();
}

CsrMatrix CsrBuilder::finish() {
  while (row_ < rows_) close_row();
  return CsrMatrix::from_parts(rows_, cols_, std::move(row_ptr_),
                               std::move(col_idx_), std::move(values_));
}

CsrMatrix CsrMatrix::from_edges(const gen::EdgeList& edges, std::uint64_t rows,
                                std::uint64_t cols) {
  {
    CsrBuilder builder(rows, cols, edges.size());
    if (builder.add(edges)) return builder.finish();
  }
  gen::EdgeList sorted = edges;  // not grouped by row
  std::sort(sorted.begin(), sorted.end());
  return from_edges(sorted, rows, cols);
}

CsrMatrix CsrMatrix::from_triplets(const std::vector<std::uint64_t>& row,
                                   const std::vector<std::uint64_t>& col,
                                   const std::vector<double>& val,
                                   std::uint64_t rows, std::uint64_t cols) {
  util::require(row.size() == col.size() && row.size() == val.size(),
                "from_triplets: array lengths must match");
  std::vector<std::size_t> order(row.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return row[a] != row[b] ? row[a] < row[b] : col[a] < col[b];
  });
  CsrBuilder builder(rows, cols, order.size());  // sorted: always grouped
  for (const std::size_t k : order) (void)builder.add(row[k], col[k], val[k]);
  return builder.finish();
}

CsrMatrix CsrMatrix::from_parts(std::uint64_t rows, std::uint64_t cols,
                                std::vector<std::uint64_t> row_ptr,
                                std::vector<ColIndex> col_idx,
                                std::vector<double> values) {
  util::require(row_ptr.size() == rows + 1,
                "from_parts: row_ptr must have rows+1 entries");
  util::require(col_idx.size() == values.size(),
                "from_parts: col_idx/values lengths must match");
  util::require(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
                "from_parts: row_ptr must span [0, nnz]");
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

double CsrMatrix::value_sum() const {
  double acc = 0;
  for (const double v : values_) acc += v;
  return acc;
}

double CsrMatrix::at(std::uint64_t row, std::uint64_t col) const {
  util::require(row < rows_ && col < cols_, "CsrMatrix::at: out of range");
  const auto lo = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto hi =
      col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(lo, hi, col);
  if (it == hi || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

std::vector<double> CsrMatrix::col_sums() const {
  std::vector<double> sums(cols_, 0.0);
  for (std::size_t k = 0; k < col_idx_.size(); ++k)
    sums[col_idx_[k]] += values_[k];
  return sums;
}

std::vector<double> CsrMatrix::row_sums() const {
  std::vector<double> sums(rows_, 0.0);
  for (std::uint64_t r = 0; r < rows_; ++r) {
    double acc = 0;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k];
    sums[r] = acc;
  }
  return sums;
}

void CsrMatrix::zero_columns(const std::vector<bool>& mask) {
  util::require(mask.size() == cols_,
                "zero_columns: mask size must equal column count");
  std::uint64_t write = 0;
  std::uint64_t read_row_start = 0;
  for (std::uint64_t r = 0; r < rows_; ++r) {
    const std::uint64_t row_end = row_ptr_[r + 1];
    for (std::uint64_t k = read_row_start; k < row_end; ++k) {
      if (!mask[col_idx_[k]]) {
        col_idx_[write] = col_idx_[k];
        values_[write] = values_[k];
        ++write;
      }
    }
    read_row_start = row_end;
    row_ptr_[r + 1] = write;
  }
  col_idx_.resize(write);
  values_.resize(write);
}

void CsrMatrix::scale_rows_inverse(const std::vector<double>& scale) {
  util::require(scale.size() == rows_,
                "scale_rows_inverse: scale size must equal row count");
  for (std::uint64_t r = 0; r < rows_; ++r) {
    const double s = scale[r];
    if (s <= 0.0) continue;
    const double inv = 1.0 / s;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      values_[k] *= inv;
  }
}

void CsrMatrix::vec_mat(const std::vector<double>& x,
                        std::vector<double>& y) const {
  util::require(x.size() == rows_, "vec_mat: x size must equal row count");
  y.assign(cols_, 0.0);
  for (std::uint64_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      y[col_idx_[k]] += xr * values_[k];
  }
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix t(cols_, rows_);
  std::vector<std::uint64_t> counts(cols_, 0);
  for (const auto col : col_idx_) ++counts[col];
  for (std::uint64_t c = 0; c < cols_; ++c)
    t.row_ptr_[c + 1] = t.row_ptr_[c] + counts[c];
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  std::vector<std::uint64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::uint64_t r = 0; r < rows_; ++r) {
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::uint64_t pos = cursor[col_idx_[k]]++;
      t.col_idx_[pos] = static_cast<ColIndex>(r);
      t.values_[pos] = values_[k];
    }
  }
  return t;  // rows iterated in order => each transposed row is sorted
}

bool CsrMatrix::approx_equal(const CsrMatrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || nnz() != other.nnz())
    return false;
  if (row_ptr_ != other.row_ptr_ || col_idx_ != other.col_idx_) return false;
  for (std::size_t k = 0; k < values_.size(); ++k) {
    if (std::abs(values_[k] - other.values_[k]) > tol) return false;
  }
  return true;
}

}  // namespace prpb::sparse
