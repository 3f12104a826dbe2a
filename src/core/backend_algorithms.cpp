// Default K3 algorithm dispatch shared by every backend (see
// core/algorithm.hpp). "pagerank" routes through the backend's own
// kernel3() virtual so the paper's fixed pipeline keeps its per-niche
// implementation (and stays bit-identical to the golden suite); the other
// algorithms fall back to the shared sparse/ reference implementations,
// which makes their outputs bit-identical across backends by
// construction. Backends with a native formulation override (see
// GraphBlasBackend::run_algorithm).
#include "core/backend.hpp"
#include "sparse/algorithms.hpp"
#include "util/error.hpp"

namespace prpb::core {

AlgorithmResult PipelineBackend::run_algorithm(const KernelContext& ctx,
                                               const sparse::CsrMatrix& matrix,
                                               const std::string& algorithm) {
  AlgorithmResult result;
  result.algorithm = algorithm;
  if (algorithm == "pagerank") {
    result.implementation = name() + "-kernel3";
    result.ranks = kernel3(ctx, matrix);
    result.iterations = ctx.config.iterations;
    result.work_edges = static_cast<std::uint64_t>(ctx.config.iterations) *
                        ctx.config.num_edges();
  } else if (algorithm == "bfs") {
    result.implementation = "reference-csr";
    if (matrix.rows() > 0) {
      result.bfs_source = sparse::bfs_default_source(matrix);
      result.levels = sparse::bfs_levels(matrix, result.bfs_source);
      result.iterations = bfs_depth(result.levels);
    }
    result.work_edges = matrix.nnz();
  } else if (algorithm == "cc") {
    result.implementation = "reference-unionfind";
    result.labels = sparse::connected_components(matrix);
    result.iterations = 1;
    result.work_edges = matrix.nnz();
  } else {
    throw util::ConfigError{"unknown algorithm '" + algorithm +
                            "' (valid values: " + joined_algorithm_names() +
                            ")"};
  }
  return result;
}

}  // namespace prpb::core
