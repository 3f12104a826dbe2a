#include "core/backend_dataframe.hpp"

#include "df/csv.hpp"
#include "df/dataframe.hpp"
#include "gen/generator.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"

namespace prpb::core {

namespace {
df::DataFrame edges_to_frame(const gen::EdgeList& edges) {
  std::vector<std::int64_t> u(edges.size());
  std::vector<std::int64_t> v(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    u[i] = static_cast<std::int64_t>(edges[i].u);
    v[i] = static_cast<std::int64_t>(edges[i].v);
  }
  df::DataFrame frame;
  frame.add_column("u", df::Column(std::move(u)));
  frame.add_column("v", df::Column(std::move(v)));
  return frame;
}
}  // namespace

void DataFrameBackend::kernel0(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  // Graph generation happens in the "C extension" (the native generator,
  // the same way a Python harness would call a compiled Graph500 module);
  // the frame build and the delimited write are dataframe work.
  const auto generator = gen::make_generator(config.generator, config.scale,
                                             config.edge_factor, config.seed);
  const df::DataFrame frame = edges_to_frame(generator->generate_all());
  df::write_edge_stage(frame, ctx.store, ctx.out_stage, config.num_files,
                       ctx.codec(io::Codec::kGeneric));
}

void DataFrameBackend::kernel1(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  const df::DataFrame frame = df::read_edge_stage(
      ctx.store, ctx.in_stage, ctx.codec(io::Codec::kGeneric));
  const std::vector<std::string> keys =
      config.sort_key == sort::SortKey::kStartEnd
          ? std::vector<std::string>{"u", "v"}
          : std::vector<std::string>{"u"};
  const df::DataFrame sorted = frame.sort_values(keys);
  df::write_edge_stage(sorted, ctx.store, ctx.out_stage, config.num_files,
                       ctx.codec(io::Codec::kGeneric));
}

sparse::CsrMatrix DataFrameBackend::kernel2(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  const df::DataFrame frame = df::read_edge_stage(
      ctx.store, ctx.in_stage, ctx.codec(io::Codec::kGeneric));
  // df.groupby(["u","v"]).size() -> COO triplets with duplicate counts,
  // then the sparse substrate takes over (scipy.sparse analogue).
  const df::DataFrame triplets = frame.groupby_count({"u", "v"}, "count");
  const auto& u = triplets.col("u").i64();
  const auto& v = triplets.col("v").i64();
  const auto& counts = triplets.col("count").i64();
  std::vector<std::uint64_t> rows(u.size());
  std::vector<std::uint64_t> cols(v.size());
  std::vector<double> vals(counts.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    util::ensure(u[i] >= 0 && v[i] >= 0,
                 "dataframe kernel2: negative vertex id");
    rows[i] = static_cast<std::uint64_t>(u[i]);
    cols[i] = static_cast<std::uint64_t>(v[i]);
    vals[i] = static_cast<double>(counts[i]);
  }
  const std::uint64_t n = config.num_vertices();
  sparse::CsrMatrix a =
      sparse::CsrMatrix::from_triplets(rows, cols, vals, n, n);
  sparse::apply_filter(a);
  return a;
}

std::vector<double> DataFrameBackend::kernel3(const KernelContext& ctx,
                                              const sparse::CsrMatrix& matrix) {
  util::require(matrix.rows() == ctx.config.num_vertices(),
                "kernel3: matrix size does not match N = 2^scale");
  return sparse::pagerank(matrix, ctx.k3_config(), nullptr, ctx.hooks.trace);
}

}  // namespace prpb::core
