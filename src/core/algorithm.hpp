// The pluggable K3 algorithm stage (DESIGN.md §9).
//
// The paper fixes kernel 3 to PageRank; GAP-style benchmarking wants a
// small kernel *suite* over one shared graph representation. An
// AlgorithmResult is one algorithm's output over the kernel-2 CSR +
// backend matrix; PipelineBackend::run_algorithm (core/backend.hpp)
// dispatches a canonical algorithm name to the backend niche's own
// formulation where one exists, and to the shared sparse/ reference
// implementations — the documented fallback — everywhere else.
//
// Canonical algorithm names:
//   pagerank  — the paper's fixed-iteration PageRank, routed through
//               kernel3() so it stays bit-identical to the fixed pipeline
//               (golden suite intact)
//   bfs       — top-down BFS levels from a deterministic default source
//   cc        — weakly connected components, min-id labels
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace prpb::core {

/// Output of one K3 algorithm over the kernel-2 matrix. Exactly one of
/// ranks/levels/labels is populated, matching the algorithm family.
struct AlgorithmResult {
  std::string algorithm;       ///< canonical name ("pagerank", "bfs", ...)
  std::string implementation;  ///< code path that ran ("reference-csr",
                               ///< "grb-vxm", "native-kernel3", ...)
  std::vector<double> ranks;          ///< pagerank
  std::vector<std::int64_t> levels;   ///< bfs (-1 = unreachable)
  std::vector<std::uint64_t> labels;  ///< cc (min vertex id per component)
  std::uint64_t bfs_source = 0;       ///< bfs only
  /// PageRank iterations, BFS depth (max level), or CC union rounds.
  int iterations = 0;
  /// Edge traversals for the edges/s metric: iterations·M for pagerank
  /// (the paper's kernel-3 accounting), nnz for bfs/cc (one structural
  /// traversal).
  std::uint64_t work_edges = 0;
  /// Canonical output digest (hex; see core/checksum.hpp). Quantized for
  /// ranks, exact for levels/labels. Filled by the runner, outside the
  /// timed K3 interval; empty in a direct run_algorithm() result.
  std::string checksum;

  [[nodiscard]] bool has_ranks() const { return !ranks.empty(); }
};

/// All canonical algorithm names, in report order.
std::vector<std::string> algorithm_names();

/// The canonical names joined by ", " — the "valid values" text of every
/// unknown-algorithm error.
std::string joined_algorithm_names();

/// True when `name` is a canonical algorithm name.
bool is_algorithm_name(const std::string& name);

/// BFS depth: the deepest level reached (0 when no level exceeds it).
int bfs_depth(const std::vector<std::int64_t>& levels);

/// Parses a comma-separated `--algorithm` list ("pagerank,bfs,cc").
/// Duplicates collapse to the first occurrence; order is preserved.
/// Throws ConfigError naming the offending entry and listing the valid
/// values for empty lists or unknown names.
std::vector<std::string> parse_algorithm_list(const std::string& csv);

}  // namespace prpb::core
