#include "core/backend_parallel.hpp"

#include "core/backend_native.hpp"
#include "gen/generator.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace prpb::core {

util::ThreadPool& ParallelBackend::pool() {
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
  return *pool_;
}

void ParallelBackend::kernel0(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  const auto generator = gen::make_generator(config.generator, config.scale,
                                             config.edge_factor, config.seed);
  ctx.store.clear_stage(ctx.out_stage);
  const io::StageCodec& codec = ctx.codec();
  const auto bounds =
      io::shard_boundaries(generator->num_edges(), config.num_files);

  std::vector<std::future<void>> futures;
  futures.reserve(config.num_files);
  for (std::size_t s = 0; s < config.num_files; ++s) {
    futures.push_back(pool().submit([&, s] {
      io::ShardWriter writer(ctx.store, ctx.out_stage,
                             io::shard_name(s, codec), codec, ctx.hooks);
      gen::EdgeList batch;
      constexpr std::uint64_t kBatch = io::kDefaultBatchEdges;
      for (std::uint64_t lo = bounds[s]; lo < bounds[s + 1]; lo += kBatch) {
        const std::uint64_t hi =
            std::min<std::uint64_t>(bounds[s + 1], lo + kBatch);
        batch.clear();
        generator->generate_range(lo, hi, batch);
        writer.append(batch);
      }
      writer.close();
    }));
  }
  for (auto& future : futures) future.get();
}

void ParallelBackend::kernel1(const KernelContext& ctx) {
  kernel1_sort(ctx, &pool());
}

sparse::CsrMatrix ParallelBackend::kernel2(const KernelContext& ctx) {
  const std::uint64_t n = ctx.config.num_vertices();
  // Row decomposition per the paper; at this repo's default configuration
  // the build is bandwidth-bound, so only the parse is parallelized (by
  // shard). K1's shards are in row order, so feeding them in shard order
  // to one builder gives native's matrix.
  const auto shards = ctx.store.list(ctx.in_stage);
  const io::StageCodec& codec = ctx.codec();
  std::vector<gen::EdgeList> parts(shards.size());
  std::vector<std::future<void>> futures;
  futures.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    futures.push_back(pool().submit([&, i] {
      parts[i] = io::read_edge_shard(ctx.store, ctx.in_stage, shards[i],
                                     codec, ctx.hooks);
    }));
  }
  for (auto& future : futures) future.get();
  const obs::Span span = ctx.span("k2/filter_edges");
  sparse::CsrBuilder builder(n, n, ctx.config.num_edges());
  for (auto& part : parts) {
    ctx.add_stage_edges(builder, part);
    gen::EdgeList().swap(part);
  }
  sparse::CsrMatrix matrix = builder.finish();
  sparse::apply_filter(matrix);
  return matrix;
}

std::vector<double> ParallelBackend::kernel3(const KernelContext& ctx,
                                             const sparse::CsrMatrix& matrix) {
  util::require(matrix.rows() == ctx.config.num_vertices(),
                "kernel3: matrix size does not match N = 2^scale");
  return sparse::pagerank(matrix, ctx.k3_config(), &pool(), ctx.hooks.trace);
}

}  // namespace prpb::core
