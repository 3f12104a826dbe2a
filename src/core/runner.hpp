// Pipeline orchestration: runs kernels 0-3 in order through a backend,
// timing each and reporting the paper's metrics (edges/second; kernel 3
// counts 20·M edge traversals) plus per-kernel stage I/O. "Each kernel in
// the pipeline must be fully completed before the next kernel can begin" —
// the runner enforces the barrier by materializing every stage before the
// next kernel starts.
//
// The runner owns the stage-naming scheme (stages::*) and the storage
// wiring: it builds the store from config.storage (or takes an injected
// one), wraps it in the shard-accounting decorator (io::CountingStageStore),
// and hands kernels a KernelContext. Kernels never see paths.
//
// One reading per quantity: a kernel's seconds and its trace span come from
// the same two clock reads, its stage bytes and files from the decorator's
// counters (whose shard spans, when traced, carry the same bytes), and the
// K3 iteration telemetry from the single observer that also emits the
// k3/iter spans. The report and the trace are two views of one run.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/graph_source.hpp"
#include "core/kernel_context.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/csr.hpp"
#include "sparse/pagerank.hpp"
#include "util/timer.hpp"

namespace prpb::core {

/// Canonical stage names — the single definition (kernels, benches,
/// examples and tests all address stages through these).
namespace stages {
inline constexpr const char* kStage0 = "k0_edges";   ///< kernel-0 output
inline constexpr const char* kStage1 = "k1_sorted";  ///< kernel-1 output
inline constexpr const char* kTemp = "tmp";          ///< spill scratch
}  // namespace stages

struct KernelMetrics {
  /// Floor for rate computation: a timed kernel that completes faster than
  /// the clock can resolve reports edges/s as if it took this long instead
  /// of silently reporting 0 (which plots as a missing point in sweeps).
  static constexpr double kMinMeasurableSeconds = 1e-9;

  /// Wall time over all attempts; the kernel's trace span has the same
  /// endpoints.
  double seconds = 0.0;
  std::uint64_t edges_processed = 0;  ///< M, or iterations·M for kernel 3
  // Stage traffic recorded by the runner's shard-accounting store.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t files_read = 0;     ///< shards opened for reading
  std::uint64_t files_written = 0;  ///< shards opened for writing
  /// Execution attempts this kernel took (1 = first try succeeded; > 1
  /// means transient I/O faults were absorbed by the retry policy).
  int attempts = 1;
  /// True when --resume validated the kernel's checkpoint and skipped it.
  bool resumed = false;

  /// Stage bytes moved per processed edge (read + write sides).
  [[nodiscard]] double bytes_per_edge() const {
    if (edges_processed == 0) return 0.0;
    return static_cast<double>(bytes_read + bytes_written) /
           static_cast<double>(edges_processed);
  }

  [[nodiscard]] double edges_per_second() const {
    if (edges_processed == 0) return 0.0;
    return static_cast<double>(edges_processed) /
           std::max(seconds, kMinMeasurableSeconds);
  }
};

/// One K3 algorithm's output plus its timing/IO row — the runner wraps
/// every configured algorithm in one of these, in configuration order.
struct AlgorithmRun {
  AlgorithmResult output;
  KernelMetrics metrics;
};

struct PipelineResult {
  std::string backend;
  std::string storage;       ///< store kind the run used ("dir" | "mem")
  std::string stage_format;  ///< stage encoding ("tsv" | "binary")
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  /// What kernel 0's graph source produced: true N and M plus, for
  /// external graphs, provenance and degree-skew statistics.
  GraphSummary graph;
  KernelMetrics k0;  ///< untimed by the benchmark; measured for insight
  KernelMetrics k1;
  KernelMetrics k2;
  KernelMetrics k3;  ///< the pagerank algorithm's row (zero when not run)
  sparse::CsrMatrix matrix;     ///< kernel-2 output
  /// Kernel-3 PageRank output. Populated iff "pagerank" is configured,
  /// mirroring algorithms[i].output.ranks for backward compatibility.
  std::vector<double> ranks;
  /// Every configured K3 algorithm, in run order (always at least one).
  std::vector<AlgorithmRun> algorithms;
  /// End-to-end wall time of the run (same monotonic clock as the
  /// per-kernel timings; covers everything between entry and return,
  /// including the inter-kernel barriers).
  double wall_seconds_total = 0.0;
  /// Snapshot of the run's metrics registry (kernel counters, shard
  /// latency and batch-size histograms, ...). Serialized under "metrics".
  obs::MetricsSnapshot metrics;
  /// Per-iteration kernel-3 telemetry (residual, rank-sum drift, ms per
  /// iteration). Empty for backends that do not report it (arraylang).
  std::vector<sparse::IterationStats> k3_iterations;
  // Resilience summary (serialized under "resilience" in the run report).
  std::string fault_plan;         ///< canonical injected-fault plan ("" = none)
  int retry_max_attempts = 1;     ///< kernel attempt budget the run used
  bool checkpointing = false;     ///< stage manifests verified and persisted
  std::uint64_t faults_injected = 0;  ///< faults the injector actually fired
};

struct RunOptions {
  bool run_kernel0 = true;  ///< when false, stage0 must already exist
  /// Run against this store instead of building one from config.storage
  /// (not owned; lets tests and benches share or inspect stages).
  io::StageStore* store = nullptr;
  /// Observability hooks threaded into every kernel and I/O layer. When
  /// metrics is null the runner builds a run-local registry (the result
  /// snapshot is populated either way); when trace is set and enabled, the
  /// kernel spans are recorded and the shard-accounting store also emits a
  /// span and a latency observation per shard.
  obs::Hooks hooks;
  /// Non-empty: wrap the store in a FaultInjectingStageStore interpreting
  /// this plan (deterministic from plan.seed).
  fault::FaultPlan fault_plan;
  /// Kernel retry budget for transient I/O faults. max_attempts <= 1
  /// disables retries; seed 0 inherits config.seed for the backoff jitter.
  fault::RetryPolicy retry;
  /// Verify each completed stage against its as-written digests and
  /// persist a checkpoint manifest (silent corruption surfaces as
  /// util::CorruptionError at the stage barrier instead of as wrong
  /// answers downstream).
  bool checkpoint = false;
  /// Skip kernels whose persisted checkpoint manifests validate against
  /// this configuration (implies checkpoint). Kernels re-run from the
  /// first missing or invalid stage.
  bool resume = false;
};

/// Runs the full pipeline. Stages live in the configured store. Throws
/// util::PipelineError when options.run_kernel0 is false and the k0_edges
/// stage is missing or empty.
PipelineResult run_pipeline(const PipelineConfig& config,
                            PipelineBackend& backend,
                            const RunOptions& options = {});

}  // namespace prpb::core
