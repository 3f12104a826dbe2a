// Pipeline workloads: K0 generation into the stage store is the set-up;
// the timed operation is one K1→K3 run of the paper's timed kernels
// through core::run_pipeline(run_kernel0 = false) on that store, each
// followed by the fixed reference work that pipeline_rel divides by.
#include <unistd.h>

#include <cstdlib>
#include <fstream>

#include "core/checksum.hpp"
#include "gen/generator.hpp"
#include "model/hardware.hpp"
#include "pipeline.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "traced_layers.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace core = prpb::core;

core::PipelineConfig pipeline_config(const Workload& workload,
                                     const Options& options) {
  core::PipelineConfig config;
  config.scale = options.scale > 0 ? options.scale : workload.scale;
  config.seed = options.seed;
  config.stage_format = workload.stage_format;
  config.storage = workload.storage;
  if (workload.storage == "dir") {
    config.work_dir = std::filesystem::path(options.work_dir) /
                      (workload.name + "-" + std::to_string(::getpid()));
  }
  config.validate();
  return config;
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

void stage_graph(StagedGraph& graph, double& seconds) {
  graph.store.reset();
  if (!graph.config.work_dir.empty()) {
    std::filesystem::remove_all(graph.config.work_dir);
  }
  prpb::util::Stopwatch watch;
  graph.store = core::make_stage_store(graph.config);
  const core::KernelContext ctx{graph.config, *graph.store, "",
                                core::stages::kStage0, core::stages::kTemp};
  graph.backend->kernel0(ctx);
  seconds = watch.seconds();
}

core::PipelineResult run_k1_to_k3(StagedGraph& graph, double& seconds) {
  core::RunOptions options;
  options.run_kernel0 = false;
  options.store = graph.store.get();
  prpb::util::Stopwatch watch;
  core::PipelineResult result =
      core::run_pipeline(graph.config, *graph.backend, options);
  seconds = watch.seconds();
  return result;
}

std::string rank_digest_hex(const core::PipelineResult& result) {
  return core::digest_hex(core::rank_digest(result.ranks));
}

std::string reference_digest(const core::PipelineConfig& config) {
  const auto generator = prpb::gen::make_generator(
      config.generator, config.scale, config.edge_factor, config.seed);
  prpb::gen::EdgeList edges = generator->generate_all();
  prpb::sort::radix_sort(edges, config.sort_key);
  const prpb::sparse::CsrMatrix matrix =
      prpb::sparse::filter_edges(edges, config.num_vertices());
  prpb::gen::EdgeList().swap(edges);
  prpb::sparse::PageRankConfig pr;
  pr.iterations = config.iterations;
  pr.damping = config.damping;
  pr.seed = config.seed;
  return core::digest_hex(
      core::rank_digest(prpb::sparse::pagerank(matrix, pr)));
}

std::string expected_digest(const core::PipelineConfig& config,
                            const Options& options) {
  if (options.fault == "bad-digest") return "0000000000000000";
  if (options.seed == kDefaultSeed && !pinned_digest(config.scale).empty()) {
    return pinned_digest(config.scale);
  }
  prpb::util::Stopwatch watch;
  std::string digest = reference_digest(config);
  note("reference digest (no stage codec): %s in %.2f s", digest.c_str(),
       watch.seconds());
  return digest;
}

namespace {

/// Counts one checked repetition; a digest mismatch is a failed one.
void check_digest(const core::PipelineResult& pipeline,
                  const std::string& expected, Result& result) {
  ++result.attempted;
  const std::string got = rank_digest_hex(pipeline);
  if (got != expected) {
    ++result.failed;
    result.wrong("K3 rank digest " + got + " != expected " + expected);
  }
}

/// Size of the last-level cache in bytes: sysfs first, then the C library.
std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) {
      continue;
    }
    std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level >= best_level && bytes > 0) {
      best_level = level;
      best = bytes;
    }
  }
  if (best == 0) {
    const long fallback = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    best = fallback > 0 ? static_cast<std::uint64_t>(fallback) : 32ULL << 20;
  }
  return best;
}

/// One traced repetition's layer figures, in output order.
using LayerSample = std::vector<Result::Metric>;

}  // namespace

core::PipelineResult trace_pipeline_layers(StagedGraph& graph,
                                           const Options& options,
                                           Result& result) {
  const core::PipelineConfig& config = graph.config;
  const double m = static_cast<double>(config.num_edges());
  const double n = static_cast<double>(config.num_vertices());

  double k0_s = 0.0;
  stage_graph(graph, k0_s);
  const std::string expected = expected_digest(config, options);

  const std::uint64_t llc = llc_bytes();
  const std::uint64_t probe_bytes = 4 * llc;
  const double triad_gb_s =
      prpb::model::probe_triad_bandwidth(probe_bytes) / 1e9;
  note("triad probe: %.0f MiB in three arrays (4x the %.0f MiB LLC): "
       "%.2f GB/s",
       static_cast<double>(probe_bytes) / (1 << 20),
       static_cast<double>(llc) / (1 << 20), triad_gb_s);

  SpanRecorder spans;
  TracedBackend traced(spans);
  double seconds = 0.0;
  check_digest(run_k1_to_k3(graph, seconds), expected, result);  // warm-up

  // Untraced and traced repetitions alternate, so drift affects both.
  constexpr int kRepeats = 2;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<LayerSample> samples;
  core::PipelineResult last;
  for (int rep = 0; rep < kRepeats; ++rep) {
    check_digest(run_k1_to_k3(graph, seconds), expected, result);
    untraced_s.push_back(seconds);

    spans.clear();
    TimedStore timed_store(*graph.store, spans);
    core::RunOptions run;
    run.run_kernel0 = false;
    run.store = &timed_store;
    last = core::PipelineResult{};  // free the previous matrix untimed
    {
      const SpanRecorder::Scope pipeline(spans, "pipeline");
      last = core::run_pipeline(config, traced, run);
    }
    check_digest(last, expected, result);
    const double pipeline_s = spans.total("pipeline");
    traced_s.push_back(pipeline_s);

    const std::string nesting = spans.nesting_error();
    if (!nesting.empty()) result.wrong("traced run: " + nesting);
    const double covered = spans.children_total("core.k1") +
                           spans.children_total("core.k2") +
                           spans.children_total("core.k3");
    const double coverage = covered / pipeline_s;
    note("traced repetition %d: %.3f s, layer spans cover %.1f%%", rep + 1,
         pipeline_s, 100.0 * coverage);
    if (coverage < 0.9) {
      result.wrong("layer spans cover only " + std::to_string(coverage) +
                   " of the traced pipeline_s (< 0.9)");
    }

    const double decode_s = spans.total("io.decode");
    const double stage_mb =
        static_cast<double>(last.k1.bytes_read + last.k2.bytes_read) / 1e6;
    const double sort_s = spans.total("sort");
    const double pagerank_s = spans.total("sparse.pagerank");
    const double nnz = static_cast<double>(last.matrix.nnz());
    const double spmv_bytes = nnz * 16.0 + 2.0 * 8.0 * n;
    const double spmv_gb_s =
        spmv_bytes * config.iterations / pagerank_s / 1e9;
    const double kernels_s =
        last.k1.seconds + last.k2.seconds + last.k3.seconds;
    samples.push_back({
        {"io.store_read_s", spans.total("io.store_read"), "s"},
        {"io.store_write_s", spans.total("io.store_write"), "s"},
        {"io.decode_s", decode_s, "s"},
        {"io.encode_s", spans.self_total("io.encode"), "s"},
        {"io.k1_decode_frac",
         spans.total("io.decode", "core.k1") / last.k1.seconds, "frac"},
        {"io.stage_mb", stage_mb, "MB"},
        {"io.decode_mb_per_s", stage_mb / decode_s, "MB/s"},
        {"sort.s", sort_s, "s"},
        {"sort.edges_per_s", m / sort_s, "1/s"},
        {"sparse.filter_s", spans.total("sparse.filter"), "s"},
        {"sparse.nnz", nnz, "count"},
        {"sparse.pagerank_s", pagerank_s, "s"},
        {"sparse.iter_ms", pagerank_s * 1e3 / config.iterations, "ms"},
        {"sparse.spmv_bytes_computed", spmv_bytes, "bytes"},
        {"sparse.spmv_gb_per_s_computed", spmv_gb_s, "GB/s"},
        {"sparse.frac_of_triad", spmv_gb_s / triad_gb_s, "frac"},
        {"core.k1_s", last.k1.seconds, "s"},
        {"core.k2_s", last.k2.seconds, "s"},
        {"core.k3_s", last.k3.seconds, "s"},
        {"core.k1_edges_per_s", last.k1.edges_per_second(), "1/s"},
        {"core.k2_edges_per_s", last.k2.edges_per_second(), "1/s"},
        {"core.k3_edges_per_s", last.k3.edges_per_second(), "1/s"},
        {"core.barrier_s", pipeline_s - kernels_s, "s"},
    });
  }

  result.add("gen.k0_s", k0_s, "s");
  result.add("gen.edges_per_s", m / k0_s, "1/s");
  for (std::size_t i = 0; i < samples.front().size(); ++i) {
    std::vector<double> values;
    for (const LayerSample& sample : samples) values.push_back(sample[i].value);
    result.add(samples.front()[i].name, median(values),
               samples.front()[i].unit);
  }
  const double untraced = median(untraced_s);
  result.add("core.pipeline_s", untraced, "s");
  result.add("core.edges_per_s", m / untraced, "1/s");
  result.add("obs.trace_overhead_frac", median(traced_s) / untraced - 1.0,
             "frac");
  result.add("model.triad_gb_per_s", triad_gb_s, "GB/s");
  result.add("model.reference_work_s",
             time_reference_work(config.scale, options.seed), "s");
  return last;
}

Result run_pipeline_workload(const Workload& workload,
                             const Options& options) {
  Result result;
  StagedGraph graph{pipeline_config(workload, options), nullptr,
                    core::make_backend("native")};
  const ScratchDir scratch(graph.config.work_dir);

  // Set-up is repeated so its median is steady; the last store is kept.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    double seconds = 0.0;
    stage_graph(graph, seconds);
    setup_s.push_back(seconds);
    note("set-up %d: K0 into the %s store in %.3f s", i + 1,
         graph.config.storage.c_str(), seconds);
  }

  double seconds = 0.0;
  const std::string warm = rank_digest_hex(run_k1_to_k3(graph, seconds));
  note("warm-up K1->K3: %.3f s, digest %s", seconds, warm.c_str());
  // Read before the reference digest and the reference work allocate, so
  // the peak is the pipeline's own: set-up plus one K1→K3.
  const double rss_mb = peak_rss_mb();
  const std::string expected = expected_digest(graph.config, options);

  // Timed pairs until the run length is reached (at least three): a K1→K3
  // run, then the reference work on the same host a moment later.
  std::vector<double> rep_s;
  std::vector<double> ratios;
  prpb::util::Stopwatch elapsed;
  while (rep_s.size() < 3 || elapsed.seconds() < options.seconds) {
    check_digest(run_k1_to_k3(graph, seconds), expected, result);
    const double ref_s =
        time_reference_work(graph.config.scale, options.seed);
    rep_s.push_back(seconds);
    ratios.push_back(seconds / ref_s);
    note("repetition %zu: K1->K3 %.4f s wall ref %.4f s, ratio %.4f",
         rep_s.size(), seconds, ref_s, ratios.back());
  }

  const double pipeline_s = median(rep_s);
  note("K1->K3 median %.4f s, %.4g edges/s (host-dependent, so reported "
       "only here and in the traced run)",
       pipeline_s,
       static_cast<double>(graph.config.num_edges()) / pipeline_s);
  result.add("setup_s", median(setup_s), "s");
  result.add("pipeline_rel", median(ratios), "ratio");
  result.add("peak_rss_mb", rss_mb, "MB");
  return result;
}

}  // namespace perfbench
