#include "core/runner.hpp"

#include <chrono>
#include <memory>
#include <optional>

#include "core/checksum.hpp"
#include "core/graph_source.hpp"
#include "fault/checkpoint.hpp"
#include "fault/inject.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace prpb::core {

namespace {

/// Folds one counting-store delta into a kernel's metrics row and mirrors
/// it into the run's registry, so the report's "metrics" object carries
/// per-kernel stage traffic on every run (traced or not).
void fold_io(KernelMetrics& metrics, const io::StageIoCounters& delta,
             obs::MetricsRegistry& registry, const char* kernel) {
  metrics.bytes_read = delta.bytes_read;
  metrics.bytes_written = delta.bytes_written;
  metrics.files_read = delta.files_read;
  metrics.files_written = delta.files_written;
  const std::string prefix(kernel);
  registry.counter(prefix + "/bytes_read")
      .add(static_cast<double>(delta.bytes_read));
  registry.counter(prefix + "/bytes_written")
      .add(static_cast<double>(delta.bytes_written));
  registry.counter(prefix + "/shards_read")
      .add(static_cast<double>(delta.files_read));
  registry.counter(prefix + "/shards_written")
      .add(static_cast<double>(delta.files_written));
}

/// Fails fast when a kernel's required input stage is absent — the barrier
/// guarantee ("each kernel fully completed before the next begins") is
/// meaningless if a later kernel silently starts from nothing.
void require_stage(io::StageStore& store, const char* stage,
                   const std::string& why) {
  if (!store.exists(stage) || store.empty(stage)) {
    throw util::PipelineError("run_pipeline: " +
                              io::shard_context(store.kind(), stage) +
                              " is missing or empty (" + why + ")");
  }
}

}  // namespace

PipelineResult run_pipeline(const PipelineConfig& config,
                            PipelineBackend& backend,
                            const RunOptions& options) {
  config.validate();

  // The runner works on a private copy: for external sources N and M are
  // unknown until the graph source materializes (or recovers) its stages,
  // at which point they are folded in here — so every KernelContext and
  // metric downstream of kernel 0 sees the true graph size.
  PipelineConfig work = config;
  const std::unique_ptr<GraphSource> source = make_graph_source(work);
  const std::vector<std::string> source_stages = source->output_stages();

  std::unique_ptr<io::StageStore> owned;
  io::StageStore* base = options.store;
  if (base == nullptr) {
    owned = make_stage_store(config);
    base = owned.get();
  }

  // Every run gets a metrics registry — the caller's when injected, a
  // run-local one otherwise — so the result snapshot is always populated.
  obs::MetricsRegistry local_registry;
  obs::Hooks hooks = options.hooks;
  if (hooks.metrics == nullptr) hooks.metrics = &local_registry;

  // Storage decorator stack, innermost first. The fault injector sits
  // directly on the base store (it simulates the medium itself); the
  // digest layer sits above it so as-written fingerprints describe what
  // kernels intended before any injected corruption; the shard-accounting
  // decorator stays outermost so kernel I/O accounting (counters, and shard
  // spans when tracing) covers retried attempts too.
  std::optional<fault::FaultInjectingStageStore> faulty;
  io::StageStore* lower = base;
  if (!options.fault_plan.empty()) {
    faulty.emplace(*base, options.fault_plan, hooks);
    lower = &*faulty;
  }
  const bool checkpointing = options.checkpoint || options.resume;
  std::optional<fault::ShardDigestStore> digests;
  if (checkpointing) {
    digests.emplace(*lower);
    lower = &*digests;
  }
  io::CountingStageStore counting(*lower, hooks);
  io::StageStore& store = counting;

  // Checkpoint verification reads go through the digest store, so they
  // traverse the (possibly faulty) layers below without perturbing the
  // per-kernel I/O counters above.
  std::optional<fault::CheckpointManager> checkpoints;
  if (checkpointing) {
    checkpoints.emplace(*digests, *digests, stage_config_fingerprint(config),
                        config.stage_format);
  }

  fault::RetryPolicy retry = options.retry;
  retry.max_attempts = std::max(1, retry.max_attempts);
  if (retry.seed == 0) retry.seed = config.seed;

  PipelineResult result;
  result.backend = backend.name();
  result.storage = store.kind();
  result.stage_format = config.stage_format;

  util::Stopwatch wall;
  obs::Span pipeline_span(hooks.trace, "pipeline");

  const auto context = [&](const char* in, const char* out) {
    KernelContext ctx{work, store, in, out, stages::kTemp};
    ctx.hooks = hooks;
    ctx.k3_sink = &result.k3_iterations;
    return ctx;
  };
  io::StageIoCounters mark = counting.snapshot();
  const auto io_delta = [&] {
    const io::StageIoCounters now = counting.snapshot();
    const io::StageIoCounters delta = now - mark;
    mark = now;
    return delta;
  };

  // Runs one timed kernel: the attempt loop, then its accounting. Transient
  // I/O faults consume a retry (after clearing the kernel's partial output
  // and spill scratch, so a re-run starts from a clean slate); every other
  // error — ConfigError, detected corruption, invariant violations —
  // rethrows immediately. KernelMetrics.seconds and the kernel's span come
  // from the same two clock readings, so the report and the trace agree;
  // the stage-I/O delta covers the same interval, all attempts included.
  // `kernel` keys the retry counter, `prefix` the I/O counters, `label` the
  // log line.
  const auto timed_kernel = [&](const char* kernel, const std::string& prefix,
                                const std::string& span_name,
                                const std::string& label,
                                KernelMetrics& metrics,
                                const std::vector<std::string>& out_stages,
                                const auto& body) {
    using Clock = obs::TraceRecorder::Clock;
    const Clock::time_point start = Clock::now();
    for (int attempt = 1;; ++attempt) {
      metrics.attempts = attempt;
      try {
        body();
        break;
      } catch (const std::exception& error) {
        if (attempt >= retry.max_attempts || !fault::is_retryable(error)) {
          throw;
        }
        hooks.metrics->counter(std::string(kernel) + "/retries").increment();
        util::log_info(kernel, "[", backend.name(), "] attempt ", attempt,
                       " hit a transient fault (", error.what(),
                       "); retrying");
        for (const std::string& out_stage : out_stages) {
          store.clear_stage(out_stage);
          if (checkpoints) checkpoints->invalidate(out_stage);
        }
        store.remove(stages::kTemp);
        obs::Span backoff(hooks.trace, "fault/retry");
        fault::backoff_sleep(retry.delay_ms(attempt));
      }
    }
    const Clock::time_point end = Clock::now();
    metrics.seconds = std::chrono::duration<double>(end - start).count();
    if (hooks.tracing()) {
      const std::uint64_t ts = hooks.trace->us_at(start);
      hooks.trace->record_complete(span_name, ts,
                                   hooks.trace->us_at(end) - ts);
    }
    fold_io(metrics, io_delta(), *hooks.metrics, prefix.c_str());
    util::log_info(label, "[", backend.name(), "] ", metrics.seconds, "s");
  };

  // Resume: a stage whose persisted manifest validates against this
  // configuration is complete, and its kernel is skipped. Validation stops
  // at the first missing/invalid stage — everything from there re-runs.
  bool skip_k0 = false;
  bool skip_k1 = false;
  if (options.resume) {
    skip_k0 = true;
    for (const std::string& stage : source_stages) {
      const fault::ManifestCheck check = checkpoints->validate(stage);
      if (!check.valid()) {
        util::log_info("resume: pipeline restarts from kernel0 (", stage,
                       ": ", check.reason, ")");
        skip_k0 = false;
        break;
      }
    }
    if (skip_k0) {
      const fault::ManifestCheck check1 =
          checkpoints->validate(stages::kStage1);
      if (check1.valid()) {
        skip_k1 = true;
      } else {
        util::log_info("resume: kernel1 re-runs (", check1.reason, ")");
      }
    }
  }

  // Kernel 0 — the graph source materializes the edge stage (untimed by
  // the benchmark definition, but measured: Figure 4 reports it for
  // insight into write performance). Skipped paths still recover the graph
  // summary from the persisted stages, never from re-reading the input.
  if (skip_k0) {
    result.k0.resumed = true;
    for (const std::string& stage : source_stages) {
      require_stage(store, stage.c_str(), "resumed from its checkpoint");
    }
    result.graph = source->recover(context("", stages::kStage0));
    fold_io(result.k0, io_delta(), *hooks.metrics, "k0");
    util::log_info("kernel0[", backend.name(), "] resumed from checkpoint");
  } else if (options.run_kernel0) {
    if (checkpoints) {
      for (const std::string& stage : source_stages) {
        checkpoints->invalidate(stage);
      }
    }
    timed_kernel("k0", "k0", "k0/generate", "kernel0", result.k0,
                 source_stages, [&] {
                   const KernelContext ctx = context("", stages::kStage0);
                   result.graph = source->materialize(ctx, backend);
                   if (checkpoints) {
                     for (const std::string& stage : source_stages) {
                       checkpoints->commit(stage);
                     }
                   }
                 });
    result.k0.edges_processed = result.graph.edges;
  } else {
    for (const std::string& stage : source_stages) {
      require_stage(store, stage.c_str(),
                    "run_kernel0 = false expects a previous run's stage here");
    }
    result.graph = source->recover(context("", stages::kStage0));
    fold_io(result.k0, io_delta(), *hooks.metrics, "k0");
  }

  // N and M are authoritative only now: for external sources they come
  // from the materialized (or recovered) stages.
  if (work.source == "external") {
    work.external_vertices = result.graph.vertices;
    work.external_edges = result.graph.edges;
  }
  result.num_vertices = work.num_vertices();
  result.num_edges = work.num_edges();
  const std::uint64_t m = work.num_edges();

  // Kernel 1 — sort (timed; M edges).
  if (skip_k1) {
    result.k1.resumed = true;
    require_stage(store, stages::kStage1, "resumed from its checkpoint");
    util::log_info("kernel1[", backend.name(), "] resumed from checkpoint");
  } else {
    if (checkpoints) checkpoints->invalidate(stages::kStage1);
    timed_kernel("k1", "k1", "k1/sort", "kernel1", result.k1,
                 {stages::kStage1}, [&] {
                   backend.kernel1(context(stages::kStage0, stages::kStage1));
                   if (checkpoints) checkpoints->commit(stages::kStage1);
                 });
    result.k1.edges_processed = m;
  }

  // Kernel 2 — filter (timed; M edges). Output is in-memory, so a retry
  // only has spill scratch to clean up.
  timed_kernel("k2", "k2", "k2/filter", "kernel2", result.k2, {}, [&] {
    result.matrix = backend.kernel2(context(stages::kStage1, ""));
  });
  result.k2.edges_processed = m;

  // Kernel 3 — the algorithm stage: every configured algorithm runs over
  // the shared kernel-2 matrix, in order (timed per algorithm; pagerank
  // counts the paper's iterations · M edge traversals, bfs/cc one
  // structural traversal). The "pagerank" run also populates the legacy
  // k3/ranks fields, so the fixed pipeline's results read unchanged.
  for (const std::string& algorithm : work.algorithms) {
    AlgorithmRun run;
    // The pagerank run keeps the historical "k3/..." metric keys; other
    // algorithms get their own prefix so rows never collide.
    const std::string prefix =
        algorithm == "pagerank" ? "k3" : "k3_" + algorithm;
    timed_kernel("k3", prefix, "k3/" + algorithm, "kernel3/" + algorithm,
                 run.metrics, {}, [&] {
                   if (algorithm == "pagerank") {
                     // drop telemetry of a failed attempt
                     result.k3_iterations.clear();
                   }
                   run.output = backend.run_algorithm(context("", ""),
                                                      result.matrix,
                                                      algorithm);
                 });
    run.metrics.edges_processed = run.output.work_edges;
    run.output.checksum = algorithm_checksum(run.output);
    if (algorithm == "pagerank") {
      result.k3 = run.metrics;
      result.ranks = run.output.ranks;
    }
    result.algorithms.push_back(std::move(run));
  }

  pipeline_span.finish();
  result.wall_seconds_total = wall.seconds();
  result.fault_plan = options.fault_plan.str();
  result.retry_max_attempts = retry.max_attempts;
  result.checkpointing = checkpointing;
  if (faulty) result.faults_injected = faulty->stats().total;
  result.metrics = hooks.metrics->snapshot();
  for (const AlgorithmRun& run : result.algorithms) {
    const std::size_t outputs = run.output.has_ranks()
                                    ? run.output.ranks.size()
                                    : std::max(run.output.levels.size(),
                                               run.output.labels.size());
    util::ensure(outputs == work.num_vertices(),
                 "pipeline: " + run.output.algorithm +
                     " output has wrong size");
  }
  return result;
}

}  // namespace prpb::core
