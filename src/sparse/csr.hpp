// Compressed sparse row matrix with double values — the adjacency-matrix
// substrate for kernels 2 and 3.
//
// Kernel 2 constructs A = sparse(u, v, 1, N, N): entries accumulate duplicate
// edges as counts, so sum(A(:)) == M even though nnz(A) < M (paper §IV.C).
#pragma once

#include <cstdint>
#include <vector>

#include "gen/edge.hpp"

namespace prpb::sparse {

class CsrMatrix {
 public:
  CsrMatrix() = default;
  /// Empty matrix with the given shape.
  CsrMatrix(std::uint64_t rows, std::uint64_t cols);

  /// Builds the duplicate-accumulating adjacency matrix from an edge list
  /// (u = row, v = col, each occurrence adds 1.0). Edges need not be sorted.
  /// Input grouped by row (kernel 1's stage) builds in one pass; a row whose
  /// columns are out of order is sorted when it closes. Other input is
  /// built from a (u, v)-sorted copy. Throws InvariantError when an
  /// endpoint is out of range.
  static CsrMatrix from_edges(const gen::EdgeList& edges, std::uint64_t rows,
                              std::uint64_t cols);

  /// Builds from parallel triplet arrays (duplicates accumulate).
  static CsrMatrix from_triplets(const std::vector<std::uint64_t>& row,
                                 const std::vector<std::uint64_t>& col,
                                 const std::vector<double>& val,
                                 std::uint64_t rows, std::uint64_t cols);

  /// Adopts prebuilt CSR arrays (parallel builders assemble them outside
  /// the class). row_ptr must have rows+1 non-decreasing entries starting
  /// at 0 and ending at col_idx.size(); columns must already be sorted and
  /// deduplicated within each row. Shape invariants are checked, per-entry
  /// ordering is the caller's contract.
  static CsrMatrix from_parts(std::uint64_t rows, std::uint64_t cols,
                              std::vector<std::uint64_t> row_ptr,
                              std::vector<std::uint64_t> col_idx,
                              std::vector<double> values);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::uint64_t cols() const { return cols_; }
  [[nodiscard]] std::uint64_t nnz() const { return col_idx_.size(); }

  [[nodiscard]] const std::vector<std::uint64_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& col_idx() const {
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
  std::uint64_t rows_ = 0;
  std::uint64_t cols_ = 0;
  std::vector<std::uint64_t> row_ptr_;  // size rows_+1
  std::vector<std::uint64_t> col_idx_;  // sorted within each row
  std::vector<double> values_;
};

}  // namespace prpb::sparse
