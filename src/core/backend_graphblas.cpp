#include "core/backend_graphblas.hpp"

#include "core/backend_native.hpp"
#include "grb/algorithms.hpp"
#include "grb/ops.hpp"
#include "io/edge_files.hpp"
#include "sparse/algorithms.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"

namespace prpb::core {

void GraphBlasBackend::kernel0(const KernelContext& ctx) {
  NativeBackend native;
  native.kernel0(ctx);
}

void GraphBlasBackend::kernel1(const KernelContext& ctx) {
  NativeBackend native;
  native.kernel1(ctx);
}

sparse::CsrMatrix GraphBlasBackend::kernel2(const KernelContext& ctx) {
  const gen::EdgeList edges = ctx.read_stage(ctx.in_stage);
  const std::uint64_t n = ctx.config.num_vertices();

  // A = GrB_Matrix_build(u, v, 1, plus-dup)
  std::vector<std::uint64_t> rows(edges.size());
  std::vector<std::uint64_t> cols(edges.size());
  const std::vector<double> ones(edges.size(), 1.0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    rows[i] = edges[i].u;
    cols[i] = edges[i].v;
  }
  grb::Matrix a = grb::Matrix::build(rows, cols, ones, n, n);

  // din = reduce over columns (plus monoid); max_din = reduce(din, max).
  const grb::Vector din = grb::reduce_columns<grb::Plus>(a);
  const double max_din = grb::reduce<grb::Max>(din);

  // GrB_select: keep entries whose column is neither a super-node nor leaf.
  a = grb::select(a, [&din, max_din](std::uint64_t, std::uint64_t col,
                                     double) {
    const double d = din[col];
    return !((max_din > 0.0 && d == max_din) || d == 1.0);
  });

  // dout = reduce over rows; A = diag(1/dout) ·(+,*) A.
  const grb::Vector dout = grb::reduce_rows<grb::Plus>(a);
  const grb::Vector inv_dout = grb::apply(
      dout, [](double d) { return d > 0.0 ? 1.0 / d : 0.0; });
  const grb::Matrix d_inv = grb::diag(inv_dout);
  a = grb::mxm<grb::PlusTimes>(d_inv, a);

  return a.csr();
}

std::vector<double> GraphBlasBackend::kernel3(const KernelContext& ctx,
                                              const sparse::CsrMatrix& matrix) {
  util::require(matrix.rows() == ctx.config.num_vertices(),
                "kernel3: matrix size does not match N = 2^scale");
  const std::uint64_t n = matrix.rows();
  const grb::Matrix a{matrix};
  const sparse::PageRankConfig pr = ctx.k3_config();
  grb::Vector r{sparse::pagerank_initial_vector(n, pr.seed)};
  sparse::run_pagerank_steps(pr, [&] {
    // r = c * (r vxm A) + (1-c)/N * reduce(r, plus), with the update's
    // residual and rank sum from the shared update loop.
    const grb::Vector y = grb::vxm<grb::PlusTimes>(r, a);
    return sparse::pagerank_update(r.data(), y.data(), pr.damping);
  });
  return r.data();
}

AlgorithmResult GraphBlasBackend::run_algorithm(
    const KernelContext& ctx, const sparse::CsrMatrix& matrix,
    const std::string& algorithm) {
  if (algorithm == "bfs" && matrix.rows() > 0) {
    AlgorithmResult result;
    result.algorithm = algorithm;
    result.implementation = "grb-vxm";
    result.bfs_source = sparse::bfs_default_source(matrix);
    const grb::Matrix a{matrix};
    result.levels = grb::bfs_levels(a, result.bfs_source);
    result.iterations = bfs_depth(result.levels);
    result.work_edges = matrix.nnz();
    return result;
  }
  if (algorithm == "cc") {
    AlgorithmResult result;
    result.algorithm = algorithm;
    result.implementation = "grb-vxm";
    const grb::Matrix a{matrix};
    result.labels = grb::connected_components(a);
    result.iterations = 1;
    result.work_edges = matrix.nnz();
    return result;
  }
  return PipelineBackend::run_algorithm(ctx, matrix, algorithm);
}

}  // namespace prpb::core
