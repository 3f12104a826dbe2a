// Ablation: edge-file codec and shard-count choices (google-benchmark).
// Quantifies the fast-vs-generic TSV codec gap that separates the native
// and interpreted stacks in Figures 4-6, and the effect of the "number of
// files is a free parameter" knob.
#include <benchmark/benchmark.h>

#include <memory>

#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "sort/edge_sort.hpp"
#include "util/fs.hpp"

namespace {

using namespace prpb;

gen::EdgeList sample_edges() {
  gen::KroneckerParams params;
  params.scale = 14;
  return gen::KroneckerGenerator(params).generate_all();
}

void BM_FormatEdges(benchmark::State& state) {
  const gen::EdgeList edges = sample_edges();
  const auto codec = static_cast<io::Codec>(state.range(0));
  for (auto _ : state) {
    std::string out;
    out.reserve(edges.size() * 16);
    io::append_edges(out, edges.data(), edges.size(), codec);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) *
                          state.iterations());
}

void BM_ParseEdges(benchmark::State& state) {
  const gen::EdgeList edges = sample_edges();
  const auto codec = static_cast<io::Codec>(state.range(0));
  std::string text;
  io::append_edges_fast(text, edges.data(), edges.size());
  for (auto _ : state) {
    gen::EdgeList parsed;
    parsed.reserve(edges.size());
    io::parse_edges(text, parsed, codec);
    benchmark::DoNotOptimize(parsed.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) *
                          state.iterations());
}

BENCHMARK(BM_FormatEdges)
    ->Arg(static_cast<int>(io::Codec::kFast))
    ->Arg(static_cast<int>(io::Codec::kGeneric))
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParseEdges)
    ->Arg(static_cast<int>(io::Codec::kFast))
    ->Arg(static_cast<int>(io::Codec::kGeneric))
    ->Unit(benchmark::kMillisecond);

// ---- storage ablation: dir vs mem stage stores ------------------------------
// Arg 0 selects the store (0 = dir, 1 = mem), arg 1 the shard count — the
// same write/read paths run_pipeline drives, so the gap is the filesystem
// tax isolated from codec and sharding effects, and the dir rows sweep the
// "number of files is a free parameter" knob.

std::unique_ptr<io::StageStore> make_store(int kind,
                                           const util::TempDir& dir) {
  if (kind == 1) return std::make_unique<io::MemStageStore>();
  return std::make_unique<io::DirStageStore>(dir.path());
}

void BM_WriteStageStore(benchmark::State& state) {
  gen::KroneckerParams params;
  params.scale = 14;
  const gen::KroneckerGenerator generator(params);
  util::TempDir dir("prpb-bench-store");
  const auto store = make_store(static_cast<int>(state.range(0)), dir);
  const auto shards = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    io::write_generated_edges(*store, "k0_edges", generator, shards,
                              io::tsv_codec(io::Codec::kFast));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(generator.num_edges()) *
                          state.iterations());
  state.SetLabel(store->kind());
}

void BM_ReadStageStore(benchmark::State& state) {
  gen::KroneckerParams params;
  params.scale = 14;
  const gen::KroneckerGenerator generator(params);
  util::TempDir dir("prpb-bench-store");
  const auto store = make_store(static_cast<int>(state.range(0)), dir);
  const auto shards = static_cast<std::size_t>(state.range(1));
  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  io::write_generated_edges(*store, "k0_edges", generator, shards, codec);
  for (auto _ : state) {
    const auto edges = io::read_all_edges(*store, "k0_edges", codec);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(generator.num_edges()) *
                          state.iterations());
  state.SetLabel(store->kind());
}

BENCHMARK(BM_WriteStageStore)
    ->Args({0, 1})->Args({0, 4})->Args({0, 16})->Args({0, 64})
    ->Args({1, 4})->Args({1, 16})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReadStageStore)
    ->Args({0, 1})->Args({0, 4})->Args({0, 16})->Args({0, 64})
    ->Args({1, 4})->Args({1, 16})
    ->Unit(benchmark::kMillisecond);

// ---- stage-format ablation: storage x codec ---------------------------------
// Arg 0 selects the store (0 = dir, 1 = mem), arg 1 the codec (0 = tsv,
// 1 = binary), arg 2 the scale. The store is wrapped in a
// CountingStageStore so every cell reports the bytes it actually moved
// ("bytes_written"/"bytes_read" counters) alongside edges/s — the numbers
// behind the "what if stages were not text" ablation.

const io::StageCodec& pick_codec(int kind) {
  return kind == 1 ? io::binary_codec() : io::tsv_codec(io::Codec::kFast);
}

std::string cell_label(const io::StageStore& store,
                       const io::StageCodec& codec) {
  return store.kind() + "/" + codec.name();
}

void BM_WriteStageCodec(benchmark::State& state) {
  gen::KroneckerParams params;
  params.scale = static_cast<int>(state.range(2));
  const gen::KroneckerGenerator generator(params);
  util::TempDir dir("prpb-bench-codec");
  const auto inner = make_store(static_cast<int>(state.range(0)), dir);
  io::CountingStageStore store(*inner);
  const io::StageCodec& codec = pick_codec(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    io::write_generated_edges(store, "k0_edges", generator, 4, codec);
  }
  const io::StageIoCounters counters = store.snapshot();
  state.SetItemsProcessed(static_cast<std::int64_t>(generator.num_edges()) *
                          state.iterations());
  state.counters["bytes_written"] = benchmark::Counter(
      static_cast<double>(counters.bytes_written) /
      static_cast<double>(state.iterations()));
  state.SetLabel(cell_label(*inner, codec));
}

void BM_ReadStageCodec(benchmark::State& state) {
  gen::KroneckerParams params;
  params.scale = static_cast<int>(state.range(2));
  const gen::KroneckerGenerator generator(params);
  util::TempDir dir("prpb-bench-codec");
  const auto inner = make_store(static_cast<int>(state.range(0)), dir);
  io::CountingStageStore store(*inner);
  const io::StageCodec& codec = pick_codec(static_cast<int>(state.range(1)));
  io::write_generated_edges(store, "k0_edges", generator, 4, codec);
  const io::StageIoCounters before = store.snapshot();
  for (auto _ : state) {
    const auto edges = io::read_all_edges(store, "k0_edges", codec);
    benchmark::DoNotOptimize(edges.data());
  }
  const io::StageIoCounters delta = store.snapshot() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(generator.num_edges()) *
                          state.iterations());
  state.counters["bytes_read"] = benchmark::Counter(
      static_cast<double>(delta.bytes_read) /
      static_cast<double>(state.iterations()));
  state.SetLabel(cell_label(*inner, codec));
}

// The K1-shaped roundtrip the tentpole targets: read the stage, sort it,
// write it back — the bytes-moved delta between tsv and binary cells is
// the stage-format ablation headline.
void BM_SortRoundTripCodec(benchmark::State& state) {
  gen::KroneckerParams params;
  params.scale = static_cast<int>(state.range(2));
  const gen::KroneckerGenerator generator(params);
  util::TempDir dir("prpb-bench-codec");
  const auto inner = make_store(static_cast<int>(state.range(0)), dir);
  io::CountingStageStore store(*inner);
  const io::StageCodec& codec = pick_codec(static_cast<int>(state.range(1)));
  io::write_generated_edges(store, "k0_edges", generator, 4, codec);
  const io::StageIoCounters before = store.snapshot();
  for (auto _ : state) {
    auto edges = io::read_all_edges(store, "k0_edges", codec);
    sort::radix_sort(edges);
    io::write_edge_list(store, "k1_sorted", edges, 4, codec);
    benchmark::DoNotOptimize(edges.data());
  }
  const io::StageIoCounters delta = store.snapshot() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(generator.num_edges()) *
                          state.iterations());
  state.counters["bytes_read"] = benchmark::Counter(
      static_cast<double>(delta.bytes_read) /
      static_cast<double>(state.iterations()));
  state.counters["bytes_written"] = benchmark::Counter(
      static_cast<double>(delta.bytes_written) /
      static_cast<double>(state.iterations()));
  state.SetLabel(cell_label(*inner, codec));
}

// K1's write phase alone: a Kronecker graph in K1 order encoded into a
// mem store, so the encoder and the staging buffer are timed without the
// filesystem. Arg 0 is the scale (the paper's 16-20).
void BM_EncodeSortedStage(benchmark::State& state, int codec_kind) {
  gen::KroneckerParams params;
  params.scale = static_cast<int>(state.range(0));
  gen::EdgeList edges = gen::KroneckerGenerator(params).generate_all();
  sort::radix_sort(edges);
  io::MemStageStore inner;
  io::CountingStageStore store(inner);
  const io::StageCodec& codec = pick_codec(codec_kind);
  for (auto _ : state) {
    io::write_edge_list(store, "k1_sorted", edges, 1, codec);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) *
                          state.iterations());
  state.counters["bytes_written"] = benchmark::Counter(
      static_cast<double>(store.snapshot().bytes_written) /
      static_cast<double>(state.iterations()));
  state.SetLabel(cell_label(inner, codec));
}

#define PRPB_CODEC_CELLS(scale)                                       \
  Args({0, 0, (scale)})->Args({0, 1, (scale)})->Args({1, 0, (scale)}) \
      ->Args({1, 1, (scale)})

BENCHMARK(BM_WriteStageCodec)
    ->PRPB_CODEC_CELLS(14)->PRPB_CODEC_CELLS(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReadStageCodec)
    ->PRPB_CODEC_CELLS(14)->PRPB_CODEC_CELLS(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SortRoundTripCodec)
    ->PRPB_CODEC_CELLS(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EncodeSortedStage, tsv, 0)
    ->DenseRange(16, 20, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EncodeSortedStage, binary, 1)
    ->DenseRange(16, 20, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
