// Compressed sparse row matrix with double values — the adjacency-matrix
// substrate for kernels 2 and 3.
//
// Kernel 2 constructs A = sparse(u, v, 1, N, N): entries accumulate duplicate
// edges as counts, so sum(A(:)) == M even though nnz(A) < M (paper §IV.C).
//
// Column indices are 32-bit: N = 2^scale with scale <= 32, so every column
// of a pipeline matrix fits, and each entry costs 12 bytes instead of 16.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "gen/edge.hpp"
#include "util/error.hpp"

namespace prpb::sparse {

/// A stored column index.
using ColIndex = std::uint32_t;

/// The widest matrix a ColIndex addresses: cols <= 2^32.
inline constexpr std::uint64_t kMaxCols = std::uint64_t{1} << 32;

class CsrMatrix {
 public:
  CsrMatrix() = default;
  /// Empty matrix with the given shape. Throws ConfigError when `cols`
  /// exceeds kMaxCols.
  CsrMatrix(std::uint64_t rows, std::uint64_t cols);

  /// Builds the duplicate-accumulating adjacency matrix from an edge list
  /// (u = row, v = col, each occurrence adds 1.0). Edges need not be sorted.
  /// Input grouped by row (kernel 1's stage) builds in one CsrBuilder pass;
  /// other input is built from a (u, v)-sorted copy. Throws InvariantError
  /// when an endpoint is out of range.
  static CsrMatrix from_edges(const gen::EdgeList& edges, std::uint64_t rows,
                              std::uint64_t cols);

  /// Builds from parallel triplet arrays (duplicates accumulate).
  static CsrMatrix from_triplets(const std::vector<std::uint64_t>& row,
                                 const std::vector<std::uint64_t>& col,
                                 const std::vector<double>& val,
                                 std::uint64_t rows, std::uint64_t cols);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::uint64_t cols() const { return cols_; }
  [[nodiscard]] std::uint64_t nnz() const { return col_idx_.size(); }

  [[nodiscard]] const std::vector<std::uint64_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<ColIndex>& col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Sum of all stored values (== M for a kernel-2 pre-filter matrix).
  [[nodiscard]] double value_sum() const;

  /// Element lookup (binary search within the row). O(log row_nnz).
  [[nodiscard]] double at(std::uint64_t row, std::uint64_t col) const;

  /// Column sums — `din = sum(A, 1)` in the Matlab reference.
  [[nodiscard]] std::vector<double> col_sums() const;
  /// Row sums — `dout = sum(A, 2)`.
  [[nodiscard]] std::vector<double> row_sums() const;

  /// Structurally removes entries in columns where `mask[col]` is true —
  /// `A(:, mask) = 0` followed by an implicit sparsity compaction.
  void zero_columns(const std::vector<bool>& mask);

  /// Divides each non-empty row by `scale[row]` (rows with scale 0 or empty
  /// rows are untouched) — `A(i,:) = A(i,:) ./ dout(i)` for dout > 0.
  void scale_rows_inverse(const std::vector<double>& scale);

  /// Row-vector product `y = x · A` (x has `rows()` entries, y `cols()`).
  void vec_mat(const std::vector<double>& x, std::vector<double>& y) const;

  /// Transposed matrix (used by the parallel backend to make the SpMV
  /// output-partitionable, and by validation).
  [[nodiscard]] CsrMatrix transpose() const;

  /// Structural + value equality within `tol` on values.
  [[nodiscard]] bool approx_equal(const CsrMatrix& other, double tol) const;

 private:
  friend class CsrBuilder;

  /// Adopts the arrays CsrBuilder::finish() assembled. row_ptr must have
  /// rows+1 non-decreasing entries starting at 0 and ending at
  /// col_idx.size(); columns must already be sorted and deduplicated
  /// within each row. Shape invariants are checked, per-entry ordering is
  /// the builder's contract.
  static CsrMatrix from_parts(std::uint64_t rows, std::uint64_t cols,
                              std::vector<std::uint64_t> row_ptr,
                              std::vector<ColIndex> col_idx,
                              std::vector<double> values);

  std::uint64_t rows_ = 0;
  std::uint64_t cols_ = 0;
  std::vector<std::uint64_t> row_ptr_;  // size rows_+1
  std::vector<ColIndex> col_idx_;  // sorted within each row
  std::vector<double> values_;
};

/// Builds a CsrMatrix in one pass over entries grouped by row: construct,
/// add() every entry, finish(). A repeat of a row's last column adds to its
/// value; a row whose columns go backwards (a start-only sort) is sorted
/// and merged when it closes. The one builder behind from_edges,
/// from_triplets and kernel 2's streamed stage read.
class CsrBuilder {
 public:
  /// `reserve` entries are allocated up front (kernel 2 passes M). Throws
  /// ConfigError when `cols` exceeds kMaxCols.
  CsrBuilder(std::uint64_t rows, std::uint64_t cols, std::size_t reserve = 0);

  /// Adds one entry. Returns false, adding nothing, when `row` precedes
  /// the open row: the entries are not grouped by row. Throws
  /// InvariantError when `row` or `col` is out of range.
  [[nodiscard]] bool add(std::uint64_t row, std::uint64_t col, double value) {
    util::ensure(row < rows_ && col < cols_, "CsrMatrix: entry out of range");
    if (row != row_) {
      if (row < row_) return false;
      while (row_ < row) close_row();
    } else if (col_idx_.size() > row_start_) {
      if (col == col_idx_.back()) {
        values_.back() += value;
        return true;
      }
      row_ordered_ = row_ordered_ && col > col_idx_.back();
    }
    col_idx_.push_back(static_cast<ColIndex>(col));
    values_.push_back(value);
    return true;
  }

  /// add(u, v, 1.0) per edge; false at the first edge out of row order.
  [[nodiscard]] bool add(const gen::EdgeList& edges) {
    for (const gen::Edge& edge : edges) {
      if (!add(edge.u, edge.v, 1.0)) return false;
    }
    return true;
  }

  /// Closes the remaining rows and returns the matrix. Call once.
  CsrMatrix finish();

 private:
  void close_row();

  std::uint64_t rows_;
  std::uint64_t cols_;
  std::vector<std::uint64_t> row_ptr_;
  std::vector<ColIndex> col_idx_;
  std::vector<double> values_;
  std::uint64_t row_ = 0;       // the open row
  std::size_t row_start_ = 0;   // row_ptr_[row_]
  bool row_ordered_ = true;     // the open row's columns only ascend
  std::vector<std::pair<ColIndex, double>> unordered_;
};

}  // namespace prpb::sparse
