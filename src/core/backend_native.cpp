// `native` backend: tuned serial C++ — the paper's C++ implementation.
// Fast TSV codec, LSD radix sort (or the external sort when the configured
// memory budget is exceeded), direct CSR construction, fused PageRank loop.
#include "core/backend_native.hpp"

#include "gen/generator.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "sort/external_sort.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace prpb::core {

void NativeBackend::kernel0(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  const auto generator = gen::make_generator(config.generator, config.scale,
                                             config.edge_factor, config.seed);
  io::write_generated_edges(ctx.store, ctx.out_stage, *generator,
                            config.num_files, ctx.codec(), ctx.hooks);
}

void kernel1_sort(const KernelContext& ctx, util::ThreadPool* pool) {
  const PipelineConfig& config = ctx.config;
  if (config.memory_budget_bytes != 0 &&
      sort::needs_external_sort(config.num_edges(),
                                config.memory_budget_bytes)) {
    // The out-of-core sort streams through the StageStore, so it works
    // over any storage; runs spill as shards of the temp stage.
    ctx.log("kernel1: memory budget " +
            std::to_string(config.memory_budget_bytes) +
            " bytes exceeded; using external sort");
    ctx.metric("k1_external_sort", 1);
    sort::ExternalSortConfig ext;
    ext.memory_budget_bytes = config.memory_budget_bytes / 2;
    ext.output_shards = config.num_files;
    ext.stage_codec = &ctx.codec();
    ext.key = config.sort_key;
    ext.hooks = ctx.hooks;
    sort::external_sort_stage(ctx.store, ctx.in_stage, ctx.out_stage,
                              ctx.temp_stage, ext);
    return;
  }
  gen::EdgeList edges;
  {
    const obs::Span span = ctx.span("k1/read");
    edges = ctx.read_stage(ctx.in_stage);
  }
  {
    const obs::Span span = ctx.span("k1/radix_sort");
    sort::radix_sort(edges, config.sort_key, pool);
  }
  const obs::Span span = ctx.span("k1/write");
  io::write_edge_list(ctx.store, ctx.out_stage, edges, config.num_files,
                      ctx.codec(), ctx.hooks);
}

void NativeBackend::kernel1(const KernelContext& ctx) {
  kernel1_sort(ctx, nullptr);
}

sparse::CsrMatrix NativeBackend::kernel2(const KernelContext& ctx) {
  // K1's stage streams straight into the CSR build: no edge list.
  const std::uint64_t n = ctx.config.num_vertices();
  filter_report_ = sparse::FilterReport{};
  sparse::CsrMatrix matrix;
  {
    const obs::Span span = ctx.span("k2/read");
    sparse::CsrBuilder builder(n, n, ctx.config.num_edges());
    io::EdgeBatchReader reader(ctx.store, ctx.in_stage, ctx.codec(),
                               ctx.hooks);
    gen::EdgeList batch;
    while (reader.next(batch)) ctx.add_stage_edges(builder, batch);
    filter_report_.input_edges = reader.edges_read();
    matrix = builder.finish();
  }
  const obs::Span span = ctx.span("k2/filter_edges");
  sparse::apply_filter(matrix, &filter_report_);
  return matrix;
}

std::vector<double> NativeBackend::kernel3(const KernelContext& ctx,
                                           const sparse::CsrMatrix& matrix) {
  util::require(matrix.rows() == ctx.config.num_vertices(),
                "kernel3: matrix size does not match N = 2^scale");
  return sparse::pagerank(matrix, ctx.k3_config(), nullptr, ctx.hooks.trace);
}

}  // namespace prpb::core
