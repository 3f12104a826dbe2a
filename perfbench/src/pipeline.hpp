// Pipeline pieces shared by every workload: K0 set-up into a stage store,
// untraced K1→K3 repetitions, the digest each repetition must reproduce,
// and the traced run that fills the per-layer metrics.
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "io/stage_store.hpp"

namespace perfbench {

/// Pipeline configuration of a workload: its scale, codec and store, the
/// run's seed, and (for dir stores) a stage directory under the work dir.
prpb::core::PipelineConfig pipeline_config(const Workload& workload,
                                           const Options& options);

/// Removes a directory tree when it goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_(std::move(path)) {}
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();

 private:
  std::filesystem::path path_;
};

/// A stage store holding the K0 stage of a configuration.
struct StagedGraph {
  prpb::core::PipelineConfig config;
  std::unique_ptr<prpb::io::StageStore> store;
  std::unique_ptr<prpb::core::PipelineBackend> backend;  ///< native
};

/// Set-up of a pipeline workload: a fresh store and K0 generation into it
/// through the native backend. `seconds` receives the time both took.
void stage_graph(StagedGraph& graph, double& seconds);

/// One untraced K1→K3 run on the staged graph; `seconds` receives its wall
/// time.
prpb::core::PipelineResult run_k1_to_k3(StagedGraph& graph, double& seconds);

/// Hex K3 rank digest of a pipeline result.
std::string rank_digest_hex(const prpb::core::PipelineResult& result);

/// The rank digest of the configuration computed without any stage codec
/// or store (generate, sort, filter and iterate in memory), against which
/// every codec's pipeline output is checked for seeds without a pin.
std::string reference_digest(const prpb::core::PipelineConfig& config);

/// The digest a workload's repetitions must reproduce: the pinned one when
/// the run uses the default seed at a pinned scale, otherwise the
/// codec-free reference. The self-test's bad-digest fault replaces it.
std::string expected_digest(const prpb::core::PipelineConfig& config,
                            const Options& options);

/// Runs the fixed reference work at `scale` (perfbench/src/reference_work.cpp)
/// and returns its wall time in seconds.
double time_reference_work(int scale, std::uint64_t seed);

/// The traced run: K0 set-up, then untraced and traced K1→K3 repetitions
/// in turn. Adds the gen, io, sort, sparse, core, obs and model metrics to
/// `result`, counts digest mismatches as failed repetitions, checks the
/// span accounting, and returns the last traced pipeline result.
prpb::core::PipelineResult trace_pipeline_layers(StagedGraph& graph,
                                                 const Options& options,
                                                 Result& result);

/// The serve layer of the traced run over a finished pipeline's matrix and
/// ranks: service build, in-process and over-the-wire timings of a fixed
/// request list, server start and server counters. Checks a full-restart
/// ppr over the wire against the pipeline's K3 digest and sampled replies
/// against in-process answers; failed requests count as failed.
void trace_serve_layers(prpb::core::PipelineResult pipeline,
                        const Workload& workload, const Options& options,
                        Result& result);

}  // namespace perfbench
