// Allocation regression tests for the K1→K2 path. A counting global
// operator new/delete tracks live and peak heap bytes, so each check pins
// how much memory a step allocates, not just what it computes: the radix
// sort works inside the edge array, the TSV encoder writes through a
// bounded staging buffer, a stage read reserves its list once, and kernel 2
// streams the stage into the CSR build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/backend_native.hpp"
#include "core/kernel_context.hpp"
#include "core/runner.hpp"
#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "serve/service.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/csr.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/threadpool.hpp"

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// Heap accounting since the last reset(). Each block carries its size in
/// a 16-byte header, so unsized deletes are counted too.
struct HeapCounter {
  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> peak{0};
  std::atomic<std::size_t> large{0};  ///< allocations of at least 1 MiB

  void reset() {
    peak = live.load();
    large = 0;
  }
  /// Peak live bytes above `base` since the last reset().
  [[nodiscard]] std::size_t peak_above(std::size_t base) const {
    const std::size_t p = peak.load();
    return p > base ? p - base : 0;
  }
};

HeapCounter heap;

constexpr std::size_t kHeader = 16;

void* counted_alloc(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &size, sizeof(size));
  const std::size_t now = heap.live += size;
  std::size_t peak = heap.peak.load();
  while (now > peak && !heap.peak.compare_exchange_weak(peak, now)) {
  }
  if (size >= kMiB) ++heap.large;
  return static_cast<char*>(block) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  std::size_t size;
  std::memcpy(&size, block, sizeof(size));
  heap.live -= size;
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace prpb {
namespace {

/// 2^20 Kronecker edges (scale 16, edge factor 16), in generator order.
gen::EdgeList kronecker_edges() {
  gen::KroneckerParams params;
  params.scale = 16;
  return gen::KroneckerGenerator(params).generate_all();
}

TEST(AllocTest, RadixSortAllocatesNoLargeBlock) {
  const gen::EdgeList input = kronecker_edges();
  ASSERT_EQ(input.size(), std::size_t{1} << 20);
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    gen::EdgeList edges = input;
    heap.reset();
    sort::radix_sort(edges, sort::SortKey::kStartEnd, p);
    EXPECT_EQ(heap.large.load(), 0u) << (p == nullptr ? "serial" : "pool");
    EXPECT_TRUE(sort::is_sorted_edges(edges, sort::SortKey::kStartEnd));
  }
}

TEST(AllocTest, TsvStageWriteKeepsPeakWithinTwoMiB) {
  gen::EdgeList edges = kronecker_edges();
  sort::radix_sort(edges);
  util::TempDir work("prpb-alloc");
  io::DirStageStore store(work.path());
  const std::size_t base = heap.live.load();
  heap.reset();
  io::write_edge_list(store, "k1_sorted", edges, 3,
                      io::tsv_codec(io::Codec::kFast));
  EXPECT_LE(heap.peak_above(base), 2 * kMiB);
}

TEST(AllocTest, StageReadReservesOnce) {
  gen::EdgeList edges = kronecker_edges();
  util::TempDir work("prpb-alloc");
  io::DirStageStore dir(work.path());
  io::MemStageStore mem;
  for (io::StageStore* store : {static_cast<io::StageStore*>(&dir),
                                static_cast<io::StageStore*>(&mem)}) {
    for (const io::StageCodec* codec :
         {&io::tsv_codec(io::Codec::kFast), &io::binary_codec()}) {
      io::write_edge_list(*store, "k0_edges", edges, 3, *codec);
      heap.reset();
      const gen::EdgeList read =
          io::read_all_edges(*store, "k0_edges", *codec, {}, edges.size());
      EXPECT_EQ(heap.large.load(), 1u)
          << store->kind() << " " << codec->name();
      EXPECT_EQ(read, edges);
    }
  }
}

// The two peak tests run at scale 16, where the 4·M (K2) and 4·nnz (K3)
// bytes that u64 columns would add exceed the fixed 2 MiB slack for reader
// buffers and bookkeeping; at scale 14 they fit inside it.
constexpr int kPeakScale = 16;

TEST(AllocTest, NativeKernel2PeaksAtTheMatrix) {
  for (const char* storage : {"dir", "mem"}) {
    util::TempDir work("prpb-alloc");
    core::PipelineConfig config;
    config.scale = kPeakScale;
    config.storage = storage;
    config.work_dir = work.path();
    const auto store = core::make_stage_store(config);
    core::NativeBackend backend;
    backend.kernel0({config, *store, "", core::stages::kStage0,
                     core::stages::kTemp});
    backend.kernel1({config, *store, core::stages::kStage0,
                     core::stages::kStage1, core::stages::kTemp});
    const std::size_t base = heap.live.load();
    heap.reset();
    const sparse::CsrMatrix matrix =
        backend.kernel2(
        {config, *store, core::stages::kStage1, "", core::stages::kTemp});
    const std::size_t m = config.num_edges();
    const std::size_t n = config.num_vertices();
    EXPECT_LE(heap.peak_above(base), 12 * m + 8 * (n + 1) + 2 * kMiB)
        << storage;
    EXPECT_EQ(matrix.rows(), n);
  }
}

TEST(AllocTest, NativeKernel3PeaksAtTheGroupedCopy) {
  // Above the live matrix, K3 holds the rank vector and the grouped
  // scatter target (8·N each), the column order (4·N) and the grouped
  // columns (4·nnz), with the runner's telemetry sink attached.
  core::PipelineConfig config;
  config.scale = kPeakScale;
  config.storage = "mem";
  const auto store = core::make_stage_store(config);
  core::NativeBackend backend;
  backend.kernel0(
      {config, *store, "", core::stages::kStage0, core::stages::kTemp});
  backend.kernel1({config, *store, core::stages::kStage0,
                   core::stages::kStage1, core::stages::kTemp});
  const sparse::CsrMatrix matrix = backend.kernel2(
      {config, *store, core::stages::kStage1, "", core::stages::kTemp});
  std::vector<sparse::IterationStats> iterations;
  iterations.reserve(static_cast<std::size_t>(config.iterations));
  core::KernelContext ctx{config, *store, "", "", core::stages::kTemp};
  ctx.k3_sink = &iterations;
  const std::size_t base = heap.live.load();
  heap.reset();
  const std::vector<double> ranks = backend.kernel3(ctx, matrix);
  const std::size_t n = config.num_vertices();
  EXPECT_LE(heap.peak_above(base),
            4 * matrix.nnz() + 4 * n + 16 * n + 2 * kMiB);
  EXPECT_EQ(ranks.size(), n);
  EXPECT_EQ(iterations.size(), static_cast<std::size_t>(config.iterations));
}

TEST(AllocTest, RankServiceHoldsOneMatrixAndPprNoPreviousCopy) {
  // The service takes the matrix and ranks by move and adds the grouped
  // columns (4·nnz) and π (4·N), plus its initial vector and rank order
  // (8·N each); a second row_ptr (8·N) or values array (8·nnz) would
  // overrun the 256 KiB slack. One full-restart ppr holds r, the scratch
  // and the top-k order (8·N each); a copy of the previous r would too.
  core::PipelineConfig config;
  config.scale = kPeakScale;
  config.storage = "mem";
  core::NativeBackend backend;
  core::PipelineResult result =
      core::run_pipeline(config, backend, core::RunOptions{});
  const std::size_t n = config.num_vertices();
  const std::size_t nnz = result.matrix.nnz();
  std::size_t base = heap.live.load();
  heap.reset();
  const serve::RankService service(std::move(result.matrix),
                                   std::move(result.ranks),
                                   serve::ServiceOptions{});
  EXPECT_LE(heap.peak_above(base), 4 * nnz + 4 * n + 16 * n + kMiB / 4);

  serve::PprRequest full;
  full.iterations = 20;
  full.topk = 10;
  base = heap.live.load();
  heap.reset();
  const serve::PprResult ppr = service.ppr(full);
  EXPECT_LE(heap.peak_above(base), 24 * n + kMiB / 4);
  EXPECT_EQ(ppr.top.size(), 10u);
}

TEST(AllocTest, CsrRejectsMoreThan32BitColumnsWithoutAllocating) {
  // One row keeps every shape here tiny: only the column count is huge.
  heap.reset();
  EXPECT_NO_THROW(sparse::CsrMatrix(1, sparse::kMaxCols));
  EXPECT_NO_THROW(sparse::CsrBuilder(1, sparse::kMaxCols));
  EXPECT_THROW(sparse::CsrMatrix(1, sparse::kMaxCols + 1), util::ConfigError);
  EXPECT_THROW(sparse::CsrBuilder(1, sparse::kMaxCols + 1),
               util::ConfigError);
  EXPECT_EQ(heap.large.load(), 0u);
}

}  // namespace
}  // namespace prpb
