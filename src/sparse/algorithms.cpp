#include "sparse/algorithms.hpp"

#include <utility>

#include "util/error.hpp"

namespace prpb::sparse {

std::vector<std::int64_t> bfs_levels(const CsrMatrix& a,
                                     std::uint64_t source) {
  util::require(a.rows() == a.cols(), "bfs: matrix must be square");
  util::require(source < a.rows(), "bfs: source out of range");
  const std::uint64_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();

  std::vector<std::int64_t> levels(n, -1);
  std::vector<std::uint64_t> frontier{source};
  levels[source] = 0;

  for (std::int64_t level = 1; !frontier.empty(); ++level) {
    std::vector<std::uint64_t> next;
    for (const std::uint64_t u : frontier) {
      for (std::uint64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
        const std::uint64_t v = col_idx[k];
        if (levels[v] < 0) {
          levels[v] = level;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  return levels;
}

std::uint64_t bfs_default_source(const CsrMatrix& a) {
  const auto& row_ptr = a.row_ptr();
  for (std::uint64_t v = 0; v < a.rows(); ++v) {
    if (row_ptr[v + 1] > row_ptr[v]) return v;
  }
  return 0;
}

std::vector<std::uint64_t> connected_components(const CsrMatrix& a) {
  util::require(a.rows() == a.cols(), "cc: matrix must be square");
  const std::uint64_t n = a.rows();
  std::vector<std::uint64_t> parent(n);
  for (std::uint64_t v = 0; v < n; ++v) parent[v] = v;

  const auto find = [&parent](std::uint64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };

  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  for (std::uint64_t u = 0; u < n; ++u) {
    for (std::uint64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      const std::uint64_t ru = find(u);
      const std::uint64_t rv = find(col_idx[k]);
      if (ru == rv) continue;
      // Union by id: the smaller root adopts the larger, so roots are
      // already component minima and normalization is a lookup.
      if (ru < rv) {
        parent[rv] = ru;
      } else {
        parent[ru] = rv;
      }
    }
  }
  std::vector<std::uint64_t> labels(n);
  for (std::uint64_t v = 0; v < n; ++v) labels[v] = find(v);
  return labels;
}

}  // namespace prpb::sparse
