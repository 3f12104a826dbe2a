// Ablation: kernel 3's SpMV formulation (google-benchmark).
// r·A via row-major CSR traversal (native), via the transposed matrix with
// output partitioning (parallel backend's formulation), via grb::vxm with
// the plus-times semiring, and the full 20-iteration kernel (serial: the
// degree-grouped push, its grouping build included). Also kernel 2's CSR
// build alone, from kernel 1's sorted edges.
#include <benchmark/benchmark.h>

#include "gen/kronecker.hpp"
#include "grb/ops.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"

namespace {

using namespace prpb;

/// Kernel 1's output: the generated edges, sorted by (u, v).
gen::EdgeList sorted_edges_at_scale(int scale) {
  gen::KroneckerParams params;
  params.scale = scale;
  auto edges = gen::KroneckerGenerator(params).generate_all();
  sort::radix_sort(edges);
  return edges;
}

sparse::CsrMatrix matrix_at_scale(int scale) {
  return sparse::filter_edges(sorted_edges_at_scale(scale), 1ULL << scale);
}

void BM_CsrFromSortedEdges(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const auto edges = sorted_edges_at_scale(scale);
  for (auto _ : state) {
    const auto a = sparse::CsrMatrix::from_edges(edges, 1ULL << scale,
                                                 1ULL << scale);
    benchmark::DoNotOptimize(a.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) *
                          state.iterations());
}

void BM_SpmvCsrRowMajor(benchmark::State& state) {
  const auto a = matrix_at_scale(static_cast<int>(state.range(0)));
  const auto r = sparse::pagerank_initial_vector(a.rows(), 1);
  std::vector<double> y;
  for (auto _ : state) {
    a.vec_mat(r, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(a.nnz()) *
                          state.iterations());
}

void BM_SpmvTransposed(benchmark::State& state) {
  const auto a = matrix_at_scale(static_cast<int>(state.range(0)));
  const auto at = a.transpose();
  const auto r = sparse::pagerank_initial_vector(a.rows(), 1);
  std::vector<double> y(a.cols());
  for (auto _ : state) {
    for (std::uint64_t j = 0; j < at.rows(); ++j) {
      double acc = 0.0;
      for (std::uint64_t k = at.row_ptr()[j]; k < at.row_ptr()[j + 1]; ++k)
        acc += at.values()[k] * r[at.col_idx()[k]];
      y[j] = acc;
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(a.nnz()) *
                          state.iterations());
}

void BM_SpmvGrbVxm(benchmark::State& state) {
  const grb::Matrix a{matrix_at_scale(static_cast<int>(state.range(0)))};
  const grb::Vector r{sparse::pagerank_initial_vector(a.nrows(), 1)};
  for (auto _ : state) {
    grb::Vector y = grb::vxm(r, a);
    benchmark::DoNotOptimize(&y);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(a.nvals()) *
                          state.iterations());
}

void BM_PageRank20Iterations(benchmark::State& state) {
  const auto a = matrix_at_scale(static_cast<int>(state.range(0)));
  sparse::PageRankConfig config;
  for (auto _ : state) {
    const auto r = sparse::pagerank(a, config);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(20 * static_cast<std::int64_t>(a.nnz()) *
                          state.iterations());
}

BENCHMARK(BM_CsrFromSortedEdges)->DenseRange(16, 20)
    ->Unit(benchmark::kMillisecond);
// The row-major SpMV and the whole kernel also run at the paper's scales
// (16-20), where y no longer fits in L2 and K3's grouping pays.
BENCHMARK(BM_SpmvCsrRowMajor)->Arg(12)->Arg(14)->DenseRange(16, 20, 2);
BENCHMARK(BM_SpmvTransposed)->Arg(12)->Arg(14)->Arg(16);
BENCHMARK(BM_SpmvGrbVxm)->Arg(12)->Arg(14)->Arg(16);
BENCHMARK(BM_PageRank20Iterations)->Arg(12)->Arg(14)->DenseRange(16, 20, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
