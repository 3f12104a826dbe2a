// Reference CSR graph algorithms — the shared implementations behind the
// pluggable K3 algorithm stage (DESIGN.md §9).
//
// Every algorithm runs directly on the kernel-2 CsrMatrix so any backend
// can fall back to them; BFS levels and CC labels are integer outputs,
// exact and implementation-independent. PageRank itself is
// sparse::pagerank (sparse/pagerank.hpp). GraphBLAS-niche formulations of
// the same algorithms live in grb/algorithms and must agree exactly with
// these (pinned by tests and the golden suite).
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace prpb::sparse {

/// BFS levels from `source` over A's structure (values ignored; directed).
/// level[v] = hop distance from source, -1 when unreachable. Top-down
/// frontier expansion along out-edges; levels are unique, so the order in
/// which a level discovers its vertices does not matter.
std::vector<std::int64_t> bfs_levels(const CsrMatrix& a,
                                     std::uint64_t source);

/// Deterministic default BFS source: the smallest vertex id with at least
/// one out-edge in A (0 when the matrix is empty). Using a fixed rule
/// instead of a random draw keeps BFS outputs comparable across backends
/// and goldenable across runs.
std::uint64_t bfs_default_source(const CsrMatrix& a);

/// Weakly connected components over A's structure (edges treated as
/// undirected). Returns, per vertex, the smallest vertex id in its
/// component — the canonical labeling every correct implementation agrees
/// on. Union-find with path halving, then a min-id normalization pass.
std::vector<std::uint64_t> connected_components(const CsrMatrix& a);

}  // namespace prpb::sparse
