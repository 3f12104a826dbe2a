// Ablation: kernel 1 sorting engine choice (google-benchmark).
// Compares a std::stable_sort comparison baseline, the LSD radix sort
// (serial and over a thread pool), and the external merge sort across
// scales — the design decision behind the paper's "the type of sorting
// algorithm may depend upon the scale parameter".
#include <benchmark/benchmark.h>

#include <algorithm>

#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "sort/edge_sort.hpp"
#include "sort/external_sort.hpp"
#include "util/fs.hpp"

namespace {

using namespace prpb;

gen::EdgeList edges_at_scale(int scale) {
  gen::KroneckerParams params;
  params.scale = scale;
  return gen::KroneckerGenerator(params).generate_all();
}

void BM_SortStd(benchmark::State& state) {
  const gen::EdgeList edges = edges_at_scale(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    gen::EdgeList copy = edges;
    std::stable_sort(copy.begin(), copy.end(),
                     [](const gen::Edge& a, const gen::Edge& b) {
                       return a.u != b.u ? a.u < b.u : a.v < b.v;
                     });
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) *
                          state.iterations());
}

void BM_SortRadix(benchmark::State& state) {
  const gen::EdgeList edges = edges_at_scale(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    gen::EdgeList copy = edges;
    sort::radix_sort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) *
                          state.iterations());
}

void BM_SortRadixParallel(benchmark::State& state) {
  const gen::EdgeList edges = edges_at_scale(static_cast<int>(state.range(0)));
  util::ThreadPool pool;
  for (auto _ : state) {
    gen::EdgeList copy = edges;
    sort::radix_sort(copy, sort::SortKey::kStartEnd, &pool);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) *
                          state.iterations());
}

void BM_SortExternal(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  gen::KroneckerParams params;
  params.scale = scale;
  const gen::KroneckerGenerator generator(params);
  util::TempDir work("prpb-bench-ext");
  io::DirStageStore store(work.path());
  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  io::write_generated_edges(store, "in", generator, 2, codec);
  for (auto _ : state) {
    sort::ExternalSortConfig config;
    config.memory_budget_bytes = 1 << 20;  // force multiple runs
    config.stage_codec = &codec;
    sort::external_sort_stage(store, "in", "out", "tmp", config);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(generator.num_edges()) *
                          state.iterations());
}

BENCHMARK(BM_SortStd)->Arg(12)->Arg(14)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SortRadix)->Arg(12)->Arg(14)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SortRadixParallel)->Arg(12)->Arg(14)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SortExternal)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
