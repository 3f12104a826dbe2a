// Shared helpers for the PRPB benchmark harness binaries.
//
// Each figure binary sweeps {backend x scale}, times one kernel per cell
// exactly the way the paper does (wall time for the full kernel, edges/sec
// metric), and prints the figure's series as a table:
//     backend  scale  edges  seconds  edges/sec
// Absolute numbers differ from the paper's Xeon/Lustre platform; the series
// *shape* (ordering, dispersion, trend in M) is the reproduction target —
// see EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/backend_native.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "io/file_stream.hpp"
#include "model/trajectory.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace prpb::bench {

struct SweepOptions {
  int min_scale = 16;
  int max_scale = 18;
  std::vector<std::string> backends = core::backend_names();
  std::size_t num_files = 4;
  std::uint64_t seed = 20160205;
  /// Repeated timings per cell; the median is reported and the MAD is the
  /// cell's noise model (--repeats).
  int repeats = 1;
  std::string csv_path;  ///< when set, the series is also written as CSV
  std::string generator = "kronecker";
  std::string source = "generator";  ///< kernel-0 graph source
  std::string input_path;            ///< external edge-list file
  /// Kernel-3 algorithms to sweep (each gets its own cell). Binaries
  /// preset their own default; --algorithms overrides.
  std::vector<std::string> algorithms = {"pagerank"};
  std::string storage = "dir";       ///< stage store kind: dir | mem
  std::string stage_format = "tsv";  ///< stage encoding: tsv | binary
  std::string trace_out;  ///< when set, write a Chrome trace of the sweep
  std::string json_path;  ///< when set, the series is also written as JSON
};

/// Standard CLI for figure benches. Returns false if --help was printed.
inline bool parse_sweep_options(int argc, char** argv, const char* name,
                                const char* doc, SweepOptions& options) {
  util::ArgParser args(name, doc);
  args.add_option("min-scale", "smallest scale to run", "16");
  args.add_option("max-scale",
                  "largest scale to run (paper sweeps to 22)", "18");
  args.add_option("backends",
                  "comma-separated backend list (default: all)", "");
  args.add_option("files", "shard files per stage", "4");
  args.add_option("seed", "generator seed", "20160205");
  args.add_option("repeats", "timings per cell, median + MAD recorded",
                  "1");
  args.add_option("csv", "also write the series to this CSV file", "");
  args.add_option("generator", "kronecker|bter|ppl", "kronecker");
  args.add_option("source", "graph source: generator | external", "generator");
  args.add_option("input",
                  "external edge-list file; implies --source external", "");
  args.add_option("algorithms",
                  "comma-separated kernel-3 algorithms (pagerank,bfs,cc); "
                  "default depends on the binary", "");
  args.add_option("storage", "stage store: dir (disk) | mem (in-memory)",
                  "dir");
  args.add_option("stage-format", "stage encoding: tsv | binary", "tsv");
  args.add_option("trace-out",
                  "write a Chrome trace_event JSON trace of the sweep", "");
  args.add_option("json",
                  "also write the series to this JSON file", "");
  if (!args.parse(argc, argv)) return false;
  options.min_scale = static_cast<int>(args.get_int("min-scale"));
  options.max_scale = static_cast<int>(args.get_int("max-scale"));
  options.num_files = static_cast<std::size_t>(args.get_int("files"));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  options.repeats = static_cast<int>(args.get_int("repeats"));
  options.csv_path = args.get("csv");
  options.generator = args.get("generator");
  options.source = args.get("source");
  options.input_path = args.get("input");
  if (!options.input_path.empty() && options.source == "generator") {
    options.source = "external";
  }
  if (!args.get("algorithms").empty()) {
    options.algorithms = core::parse_algorithm_list(args.get("algorithms"));
  }
  options.storage = args.get("storage");
  options.stage_format = args.get("stage-format");
  options.trace_out = args.get("trace-out");
  options.json_path = args.get("json");
  util::require(options.repeats >= 1, "--repeats must be >= 1");
  util::require(options.storage == "dir" || options.storage == "mem",
                "--storage must be dir or mem");
  const std::string list = args.get("backends");
  if (!list.empty()) {
    options.backends.clear();
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string item =
          comma == std::string::npos ? list.substr(pos)
                                     : list.substr(pos, comma - pos);
      if (!item.empty()) options.backends.push_back(item);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  return true;
}

/// One figure cell: a kernel measurement for (backend, scale). The cell
/// schema (median + MAD, CPU seconds, disk I/O, counter attribution) and
/// its serialization live in model/trajectory.hpp so the bench emitter,
/// bench_diff, and the tests all share one definition.
using SeriesPoint = model::BenchCell;

/// Serializes sweep cells as the machine-readable kernel benchmark
/// document ({"benchmark": "prpb-kernels", "cells": [...]}) consumed by
/// BENCH_kernels.json readers.
inline std::string kernels_json(const std::vector<SeriesPoint>& points) {
  return model::cells_json(points);
}

inline void print_series(const std::string& title,
                         const std::vector<SeriesPoint>& points) {
  std::printf("## %s\n\n", title.c_str());
  util::TextTable table({"backend", "scale", "edges", "seconds", "mad",
                         "cpu s", "edges/sec"});
  for (const auto& p : points) {
    table.add_row({p.backend, std::to_string(p.scale),
                   util::human_count(p.edges), util::fixed(p.seconds, 4),
                   util::fixed(p.seconds_mad, 4),
                   util::fixed(p.cpu_seconds, 4),
                   util::sci(p.edges_per_second)});
  }
  std::printf("%s\n", table.str().c_str());
}

/// Builds the standard pipeline config for one sweep cell.
inline core::PipelineConfig cell_config(const util::TempDir& work,
                                        const SweepOptions& options,
                                        int scale) {
  core::PipelineConfig config;
  config.scale = scale;
  config.num_files = options.num_files;
  config.seed = options.seed;
  config.generator = options.generator;
  config.source = options.source;
  config.input_path = options.input_path;
  config.algorithms = options.algorithms;
  config.storage = options.storage;
  config.stage_format = options.stage_format;
  config.work_dir = work.path();
  return config;
}

/// Runs one kernel for every (backend, scale) sweep cell and returns the
/// figure series. Earlier pipeline stages are prepared untimed with the
/// native backend — legal because every backend produces identical stages
/// (enforced by the integration tests). Kernel-3 cells measure `algorithm`
/// (the paper's fixed PageRank by default). External sources ignore the
/// scale axis: the input file determines the graph, so exactly one pass
/// runs, labeled with min_scale.
///
/// Each cell runs options.repeats timings; the reported seconds is the
/// median and seconds_mad the median absolute deviation. CPU seconds and
/// /proc/self/io traffic come from the trial whose wall time is closest to
/// the median, so every recorded column describes the same run. When
/// `external_recorder` is non-null it replaces the sweep-local recorder
/// (and options.trace_out is ignored) — bench_kernels uses this to collect
/// one trace across many sweeps.
inline std::vector<SeriesPoint> sweep_kernel(
    const SweepOptions& options, int kernel,
    const std::string& algorithm = "pagerank",
    obs::TraceRecorder* external_recorder = nullptr) {
  std::vector<SeriesPoint> points;
  // Tracing is opt-in (--trace-out or an injected recorder); the resource
  // sampler always runs so every cell line can report its peak RSS.
  obs::TraceRecorder local_recorder(external_recorder == nullptr &&
                                    !options.trace_out.empty());
  obs::TraceRecorder& recorder =
      external_recorder != nullptr ? *external_recorder : local_recorder;
  obs::Hooks hooks;
  if (recorder.enabled()) hooks.trace = &recorder;
  obs::ResourceSampler::Options sampler_options;
  if (recorder.enabled()) sampler_options.trace = &recorder;
  obs::ResourceSampler sampler(sampler_options);
  sampler.start();
  for (int scale = options.min_scale; scale <= options.max_scale; ++scale) {
    // Shared untimed preparation per scale.
    util::TempDir work("prpb-fig");
    core::PipelineConfig config = cell_config(work, options, scale);
    const auto store = core::make_stage_store(config);
    const auto context = [&](std::string in, std::string out) {
      core::KernelContext ctx{config, *store, std::move(in),
                              std::move(out), core::stages::kTemp};
      ctx.hooks = hooks;
      return ctx;
    };
    core::NativeBackend prep;
    if (kernel >= 1) {
      if (config.source == "external") {
        const auto graph_source = core::make_graph_source(config);
        const core::GraphSummary graph =
            graph_source->materialize(context("", core::stages::kStage0),
                                      prep);
        config.external_vertices = graph.vertices;
        config.external_edges = graph.edges;
      } else {
        prep.kernel0(context("", core::stages::kStage0));
      }
    }
    if (kernel >= 2)
      prep.kernel1(context(core::stages::kStage0, core::stages::kStage1));
    sparse::CsrMatrix matrix;
    if (kernel >= 3)
      matrix = prep.kernel2(context(core::stages::kStage1, ""));

    for (const auto& name : options.backends) {
      const auto backend = core::make_backend(name);
      struct Trial {
        double wall = 0;
        double cpu = 0;
        std::uint64_t io_read = 0;
        std::uint64_t io_write = 0;
      };
      std::vector<Trial> trials;
      trials.reserve(options.repeats);
      std::uint64_t k3_work = 0;
      sampler.reset_peak();
      obs::Span cell_span(hooks.trace, "bench/cell");
      for (int trial = 0; trial < options.repeats; ++trial) {
        const obs::ResourceSample before = obs::ResourceSampler::sample_now();
        util::Stopwatch watch;
        switch (kernel) {
          case 0:
            if (config.source == "external") {
              const auto graph_source = core::make_graph_source(config);
              const core::GraphSummary graph =
                  graph_source->materialize(context("", "trial_k0"),
                                            *backend);
              config.external_vertices = graph.vertices;
              config.external_edges = graph.edges;
            } else {
              backend->kernel0(context("", "trial_k0"));
            }
            break;
          case 1:
            backend->kernel1(context(core::stages::kStage0, "trial_k1"));
            break;
          case 2:
            (void)backend->kernel2(context(core::stages::kStage1, ""));
            break;
          case 3: {
            const core::AlgorithmResult out =
                backend->run_algorithm(context("", ""), matrix, algorithm);
            k3_work = out.work_edges;
            break;
          }
          default:
            throw util::ConfigError("sweep_kernel: kernel must be 0-3");
        }
        Trial t;
        t.wall = watch.seconds();
        const obs::ResourceSample after = obs::ResourceSampler::sample_now();
        t.cpu = std::max(0.0, (after.cpu_user_s + after.cpu_sys_s) -
                                  (before.cpu_user_s + before.cpu_sys_s));
        t.io_read = after.io_read_bytes >= before.io_read_bytes
                        ? after.io_read_bytes - before.io_read_bytes
                        : 0;
        t.io_write = after.io_write_bytes >= before.io_write_bytes
                         ? after.io_write_bytes - before.io_write_bytes
                         : 0;
        trials.push_back(std::move(t));
        store->remove("trial_k0");
        store->remove("trial_k1");
      }
      std::uint64_t processed = config.num_edges();
      if (kernel == 3) processed = k3_work;
      std::vector<double> timings;
      timings.reserve(trials.size());
      for (const Trial& t : trials) timings.push_back(t.wall);
      const double seconds = util::median(timings);
      const double mad = util::median_abs_deviation(timings);
      // CPU and I/O columns come from the trial closest to the median
      // wall time, so the cell's columns all describe one run.
      std::size_t rep = 0;
      for (std::size_t i = 1; i < trials.size(); ++i) {
        if (std::abs(trials[i].wall - seconds) <
            std::abs(trials[rep].wall - seconds)) {
          rep = i;
        }
      }
      const Trial& median_trial = trials[rep];
      // The background thread may not have sampled within a short cell, so
      // fold in one synchronous reading before reporting the peak.
      const std::uint64_t peak_rss =
          std::max(sampler.peak_rss_bytes(),
                   obs::ResourceSampler::sample_now().rss_bytes);
      SeriesPoint point;
      point.kernel = kernel;
      point.backend = name;
      point.scale = scale;
      point.edges = config.num_edges();
      point.seconds = seconds;
      point.seconds_mad = mad;
      point.cpu_seconds = median_trial.cpu;
      point.repeats = options.repeats;
      // edges_per_second stays wall-based (and keeps its positive-time
      // clamp); CPU seconds are a separate column, not a denominator.
      point.edges_per_second =
          seconds > 0 ? static_cast<double>(processed) / seconds : 0.0;
      point.peak_rss_bytes = peak_rss;
      point.io_read_bytes = median_trial.io_read;
      point.io_write_bytes = median_trial.io_write;
      point.storage = config.storage;
      point.stage_format = config.stage_format;
      point.source = config.source;
      if (kernel == 3) point.algorithm = algorithm;
      if (cell_span.active()) {
        util::JsonWriter args;
        args.begin_object();
        args.field("kernel", static_cast<std::int64_t>(kernel));
        args.field("backend", name);
        args.field("scale", static_cast<std::int64_t>(scale));
        args.end_object();
        cell_span.set_args(args.str());
      }
      cell_span.finish();
      points.push_back(std::move(point));
      std::fprintf(stderr,
                   "  [fig] kernel%d%s%s %s scale %d: %.3fs ±%.4f "
                   "(cpu %.3fs, peak RSS %.1f MB)\n",
                   kernel, kernel == 3 ? "/" : "",
                   kernel == 3 ? algorithm.c_str() : "", name.c_str(), scale,
                   seconds, mad, median_trial.cpu,
                   static_cast<double>(peak_rss) / (1024.0 * 1024.0));
    }
    // The input file fixes the graph; more scales would repeat the cell.
    if (config.source == "external") break;
  }
  sampler.stop();
  if (external_recorder == nullptr && !options.trace_out.empty()) {
    recorder.write_chrome_trace(options.trace_out);
    std::fprintf(stderr, "  [fig] trace written to %s (%zu events)\n",
                 options.trace_out.c_str(), recorder.event_count());
  }
  if (!options.csv_path.empty()) {
    std::string csv = "backend,scale,edges,seconds,edges_per_second\n";
    for (const auto& p : points) {
      csv += p.backend + "," + std::to_string(p.scale) + "," +
             std::to_string(p.edges) + "," + util::fixed(p.seconds, 6) +
             "," + util::sci(p.edges_per_second) + "\n";
    }
    io::write_file(options.csv_path, csv);
  }
  if (!options.json_path.empty()) {
    io::write_file(options.json_path, kernels_json(points) + "\n");
  }
  return points;
}

}  // namespace prpb::bench
