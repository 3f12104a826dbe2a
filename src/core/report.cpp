#include "core/report.hpp"

#include "core/checksum.hpp"
#include "util/json.hpp"

namespace prpb::core {

namespace {
void kernel_object(util::JsonWriter& json, const char* name,
                   const KernelMetrics& metrics) {
  json.begin_object(name);
  json.field("seconds", metrics.seconds);
  json.field("edges_processed", metrics.edges_processed);
  json.field("edges_per_second", metrics.edges_per_second());
  json.field("bytes_read", metrics.bytes_read);
  json.field("bytes_written", metrics.bytes_written);
  json.field("bytes_per_edge", metrics.bytes_per_edge());
  json.field("files_read", metrics.files_read);
  json.field("files_written", metrics.files_written);
  json.field("attempts", static_cast<std::int64_t>(metrics.attempts));
  json.field("resumed", metrics.resumed);
  json.end_object();
}
}  // namespace

std::string run_report_json(const PipelineConfig& config,
                            const PipelineResult& result,
                            const std::optional<EigenCheck>& check) {
  util::JsonWriter json;
  json.begin_object();
  json.field("benchmark", "pagerank-pipeline");

  json.begin_object("config");
  json.field("scale", static_cast<std::int64_t>(config.scale));
  json.field("edge_factor", static_cast<std::int64_t>(config.edge_factor));
  json.field("generator", config.generator);
  json.field("source", config.source);
  if (config.source == "external") {
    json.field("input", config.input_path.string());
  }
  json.begin_array("algorithms");
  for (const auto& algorithm : config.algorithms) json.value(algorithm);
  json.end_array();
  json.field("seed", config.seed);
  json.field("num_files", static_cast<std::uint64_t>(config.num_files));
  json.field("iterations", static_cast<std::int64_t>(config.iterations));
  json.field("damping", config.damping);
  // For external sources N and M are known only post-ingest, so they come
  // from the result, not the caller's (pre-run) configuration.
  json.field("num_vertices", result.num_vertices);
  json.field("num_edges", result.num_edges);
  json.field("storage", config.storage);
  json.field("stage_format", config.stage_format);
  json.end_object();

  if (!result.graph.source.empty()) {
    json.begin_object("graph");
    json.field("source", result.graph.source);
    json.field("vertices", result.graph.vertices);
    json.field("edges", result.graph.edges);
    if (result.graph.source == "external") {
      json.field("input", result.graph.input_path);
      if (!result.graph.input_format.empty()) {
        json.field("input_format", result.graph.input_format);
      }
      json.field("identity_remap", result.graph.identity_remap);
    }
    if (result.graph.has_degree_skew) {
      const auto skew_object = [&json](const char* name,
                                       const gen::DegreeSkew& skew) {
        json.begin_object(name);
        json.field("max_degree", skew.max_degree);
        json.field("mean_degree", skew.mean_degree);
        json.field("gini", skew.gini);
        json.field("top1pct_mass", skew.top1pct_mass);
        json.end_object();
      };
      skew_object("out_degree_skew", result.graph.out_degree_skew);
      skew_object("in_degree_skew", result.graph.in_degree_skew);
    }
    json.end_object();
  }

  json.field("backend", result.backend);
  if (!result.storage.empty()) json.field("storage", result.storage);
  if (!result.stage_format.empty()) {
    json.field("stage_format", result.stage_format);
  }

  json.field("wall_seconds_total", result.wall_seconds_total);

  json.begin_object("resilience");
  json.field("fault_plan", result.fault_plan);
  json.field("retry_max_attempts",
             static_cast<std::int64_t>(result.retry_max_attempts));
  json.field("checkpointing", result.checkpointing);
  json.field("faults_injected", result.faults_injected);
  json.field("resumed", result.k0.resumed || result.k1.resumed);
  json.end_object();

  json.begin_object("kernels");
  kernel_object(json, "k0_generate", result.k0);
  kernel_object(json, "k1_sort", result.k1);
  kernel_object(json, "k2_filter", result.k2);
  kernel_object(json, "k3_pagerank", result.k3);
  json.end_object();

  if (!result.algorithms.empty()) {
    json.begin_array("algorithms");
    for (const AlgorithmRun& run : result.algorithms) {
      json.begin_object();
      json.field("algorithm", run.output.algorithm);
      json.field("implementation", run.output.implementation);
      json.field("seconds", run.metrics.seconds);
      json.field("edges_processed", run.metrics.edges_processed);
      json.field("edges_per_second", run.metrics.edges_per_second());
      json.field("iterations",
                 static_cast<std::int64_t>(run.output.iterations));
      if (!run.output.levels.empty()) {
        json.field("bfs_source", run.output.bfs_source);
      }
      json.field("attempts", static_cast<std::int64_t>(run.metrics.attempts));
      json.field("checksum", run.output.checksum);
      json.end_object();
    }
    json.end_array();
  }

  if (!result.metrics.empty()) result.metrics.write_json(json);

  if (!result.k3_iterations.empty()) {
    json.begin_array("k3_iterations");
    for (const auto& it : result.k3_iterations) {
      json.begin_object();
      json.field("iteration", static_cast<std::int64_t>(it.iteration));
      json.field("seconds", it.seconds);
      json.field("residual_l1", it.residual_l1);
      json.field("rank_sum", it.rank_sum);
      json.end_object();
    }
    json.end_array();
  }

  json.begin_object("matrix");
  json.field("rows", result.matrix.rows());
  json.field("cols", result.matrix.cols());
  json.field("nnz", result.matrix.nnz());
  json.end_object();

  json.begin_object("checksums");
  if (!result.ranks.empty()) {
    json.field("rank_digest", digest_hex(rank_digest(result.ranks)));
  }
  if (result.matrix.nnz() > 0) {
    json.field("matrix_fingerprint",
               digest_hex(matrix_fingerprint(result.matrix)));
  }
  for (const AlgorithmRun& run : result.algorithms) {
    json.field(run.output.algorithm, run.output.checksum);
  }
  json.end_object();

  if (check.has_value()) {
    json.begin_object("eigen_check");
    json.field("pass", check->pass);
    json.field("max_abs_diff", check->max_abs_diff);
    json.field("eigensolver_iterations",
               static_cast<std::int64_t>(check->eigensolver_iterations));
    json.end_object();
  }

  json.end_object();
  return json.str();
}

}  // namespace prpb::core
