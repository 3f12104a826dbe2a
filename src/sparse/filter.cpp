#include "sparse/filter.hpp"

#include <algorithm>

namespace prpb::sparse {

std::vector<bool> elimination_mask(const std::vector<double>& din,
                                   FilterReport* report) {
  const double max_din =
      din.empty() ? 0.0 : *std::max_element(din.begin(), din.end());
  std::vector<bool> mask(din.size(), false);
  std::uint64_t supernodes = 0;
  std::uint64_t leaves = 0;
  for (std::size_t c = 0; c < din.size(); ++c) {
    // Matlab: A(:, din == max(din)) = 0; A(:, din == 1) = 0.
    // Counts are integral, so exact comparison mirrors the reference.
    if (max_din > 0.0 && din[c] == max_din) {
      mask[c] = true;
      ++supernodes;
    } else if (din[c] == 1.0) {
      mask[c] = true;
      ++leaves;
    }
  }
  if (report != nullptr) {
    report->max_in_degree = max_din;
    report->supernode_columns = supernodes;
    report->leaf_columns = leaves;
  }
  return mask;
}

void apply_filter(CsrMatrix& a, FilterReport* report) {
  const std::uint64_t nnz_before = a.nnz();
  a.zero_columns(elimination_mask(a.col_sums(), report));
  const std::uint64_t nnz_after = a.nnz();

  const std::vector<double> dout = a.row_sums();
  a.scale_rows_inverse(dout);

  if (report != nullptr) {
    report->nnz_before = nnz_before;
    report->nnz_after = nnz_after;
    report->dangling_rows = static_cast<std::uint64_t>(
        std::count(dout.begin(), dout.end(), 0.0));
  }
}

CsrMatrix filter_edges(const gen::EdgeList& edges, std::uint64_t n,
                       FilterReport* report) {
  CsrMatrix a = CsrMatrix::from_edges(edges, n, n);
  if (report != nullptr) {
    *report = FilterReport{};
    report->input_edges = edges.size();
  }
  apply_filter(a, report);
  return a;
}

}  // namespace prpb::sparse
