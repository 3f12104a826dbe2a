#include "core/graph_source.hpp"

#include "core/runner.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "io/edge_list.hpp"
#include "util/error.hpp"

namespace prpb::core {

namespace {

/// Degree-skew statistics over a remapped (dense-id) edge list.
void fill_degree_skew(GraphSummary& summary, const gen::EdgeList& edges,
                      std::uint64_t vertices) {
  std::vector<std::uint64_t> out_degrees(vertices, 0);
  std::vector<std::uint64_t> in_degrees(vertices, 0);
  for (const auto& edge : edges) {
    ++out_degrees[edge.u];
    ++in_degrees[edge.v];
  }
  summary.out_degree_skew = gen::degree_skew(out_degrees);
  summary.in_degree_skew = gen::degree_skew(in_degrees);
  summary.has_degree_skew = true;
}

/// The paper's K0: the backend's own kernel0 writes the configured
/// generator's edges. N and M come straight from the configuration.
class GeneratorSource final : public GraphSource {
 public:
  [[nodiscard]] std::string name() const override { return "generator"; }

  [[nodiscard]] std::vector<std::string> output_stages() const override {
    return {stages::kStage0};
  }

  GraphSummary materialize(const KernelContext& ctx,
                           PipelineBackend& backend) override {
    backend.kernel0(ctx);
    return recover(ctx);
  }

  GraphSummary recover(const KernelContext& ctx) override {
    GraphSummary summary;
    summary.source = "generator";
    summary.vertices = ctx.config.num_vertices();
    summary.edges = ctx.config.num_edges();
    return summary;
  }
};

/// Real-graph ingestion: parse the input, densify vertex ids, persist the
/// dictionary, write the edges as the k0_edges stage.
class ExternalSource final : public GraphSource {
 public:
  [[nodiscard]] std::string name() const override { return "external"; }

  [[nodiscard]] std::vector<std::string> output_stages() const override {
    // Dictionary first: k0_edges committing last means a crash between the
    // two writes leaves an invalid kernel-0 checkpoint, never a valid one
    // with a missing dictionary.
    return {stages::kStageDict, stages::kStage0};
  }

  GraphSummary materialize(const KernelContext& ctx,
                           PipelineBackend& backend) override {
    (void)backend;  // ingestion is backend-independent by design
    const PipelineConfig& config = ctx.config;
    io::ExternalEdgeList input = io::read_edge_list(config.input_path);
    const io::VertexRemap remap = io::build_vertex_remap(input.edges);
    io::apply_vertex_remap(remap, input.edges);

    // Dictionary stage: u = dense id, v = original file id.
    gen::EdgeList dictionary(remap.vertices());
    for (std::uint64_t dense = 0; dense < remap.vertices(); ++dense) {
      dictionary[dense] = gen::Edge{dense, remap.dense_to_original[dense]};
    }
    io::write_edge_list(ctx.store, stages::kStageDict, dictionary, 1,
                        ctx.codec(), ctx.hooks);
    io::write_edge_list(ctx.store, ctx.out_stage, input.edges,
                        config.num_files, ctx.codec(), ctx.hooks);

    GraphSummary summary;
    summary.source = "external";
    summary.vertices = remap.vertices();
    summary.edges = input.edges.size();
    summary.input_path = config.input_path.string();
    summary.input_format =
        config.input_path.extension() == ".mtx"
            ? "matrix-market"
            : "edge-list (" + input.format.delimiter_name() + ")";
    summary.identity_remap = remap.identity();
    fill_degree_skew(summary, input.edges, remap.vertices());
    ctx.log("external source '" + summary.input_path + "': " +
            std::to_string(summary.edges) + " edges, " +
            std::to_string(summary.vertices) + " vertices (" +
            (summary.identity_remap ? "identity" : "remapped") +
            " vertex ids)");
    return summary;
  }

  GraphSummary recover(const KernelContext& ctx) override {
    GraphSummary summary;
    summary.source = "external";
    summary.input_path = ctx.config.input_path.string();

    // N comes from the persisted dictionary — never from re-reading the
    // input file, which may have changed or disappeared since the stage
    // was materialized.
    gen::EdgeList dictionary =
        io::read_all_edges(ctx.store, stages::kStageDict, ctx.codec(),
                           ctx.hooks);
    summary.vertices = dictionary.size();
    summary.identity_remap = true;
    for (const auto& entry : dictionary) {
      if (entry.u != entry.v) {
        summary.identity_remap = false;
        break;
      }
    }

    // One bounded-memory pass over the stage recovers M and the degrees.
    std::vector<std::uint64_t> out_degrees(summary.vertices, 0);
    std::vector<std::uint64_t> in_degrees(summary.vertices, 0);
    io::EdgeBatchReader reader(ctx.store, stages::kStage0, ctx.codec(),
                               ctx.hooks);
    gen::EdgeList batch;
    while (reader.next(batch)) {
      for (const auto& edge : batch) {
        ++out_degrees[edge.u];
        ++in_degrees[edge.v];
      }
    }
    summary.edges = reader.edges_read();
    summary.out_degree_skew = gen::degree_skew(out_degrees);
    summary.in_degree_skew = gen::degree_skew(in_degrees);
    summary.has_degree_skew = true;
    return summary;
  }
};

}  // namespace

std::unique_ptr<GraphSource> make_graph_source(const PipelineConfig& config) {
  if (config.source == "generator") {
    return std::make_unique<GeneratorSource>();
  }
  if (config.source == "external") return std::make_unique<ExternalSource>();
  std::string valid;
  for (const auto& known : source_names()) {
    if (!valid.empty()) valid += ", ";
    valid += known;
  }
  throw util::ConfigError{"unknown source '" + config.source +
                          "' (valid values: " + valid + ")"};
}

std::vector<std::string> source_names() { return {"generator", "external"}; }

}  // namespace prpb::core
