// Kernel 2's filtering steps, following the paper's Matlab reference
// statement-for-statement:
//
//   A   = sparse(u, v, 1, N, N)
//   din = sum(A, 1)
//   A(:, din == max(din)) = 0      % remove super-node columns
//   A(:, din == 1)        = 0      % remove leaf columns
//   dout = sum(A, 2)
//   A(i,:) = A(i,:) ./ dout(i)  for dout(i) > 0
#pragma once

#include <cstdint>
#include <vector>

#include "gen/edge.hpp"
#include "sparse/csr.hpp"

namespace prpb::sparse {

struct FilterReport {
  std::uint64_t input_edges = 0;       ///< M (duplicates included)
  std::uint64_t nnz_before = 0;        ///< nnz(A) before column zeroing
  std::uint64_t nnz_after = 0;         ///< nnz after zeroing
  double max_in_degree = 0;            ///< max(din) before zeroing
  std::uint64_t supernode_columns = 0; ///< columns with din == max(din)
  std::uint64_t leaf_columns = 0;      ///< columns with din == 1
  std::uint64_t dangling_rows = 0;     ///< rows with dout == 0 after zeroing
};

/// The column-elimination rule on the in-degrees `din = sum(A, 1)`: marks
/// the super-node columns (din == max(din) > 0) and the leaf columns
/// (din == 1). When `report` is set, fills its max_in_degree,
/// supernode_columns and leaf_columns.
std::vector<bool> elimination_mask(const std::vector<double>& din,
                                   FilterReport* report = nullptr);

/// Runs the full kernel-2 filter on an edge list, producing the normalized
/// adjacency matrix consumed by kernel 3. Each nonzero row of the result
/// sums to 1 (dangling rows stay all-zero; the paper deliberately leaves
/// them unadjusted).
CsrMatrix filter_edges(const gen::EdgeList& edges, std::uint64_t n,
                       FilterReport* report = nullptr);

/// The zero/normalize steps alone, applied to an existing count matrix
/// (exposed so the GraphBLAS backend and tests can share the reference).
void apply_filter(CsrMatrix& a, FilterReport* report = nullptr);

}  // namespace prpb::sparse
