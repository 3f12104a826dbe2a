// KernelContext — everything a kernel is allowed to touch.
//
// The paper's kernels are mathematically fixed stage-to-stage transforms;
// the harness decides where stages live (StageStore), what they are called
// (the runner's stage-naming scheme), and what gets measured. Passing this
// bundle instead of raw filesystem paths is what makes storage swappable
// (dir vs. mem ablation) and per-kernel I/O observable. Observability rides
// along the same way: the runner threads an obs::Hooks bundle (trace
// recorder + metrics registry) through the context, so kernels emit
// attributed sub-spans and typed metrics without owning either.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/csr.hpp"
#include "sparse/pagerank.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace prpb::core {

struct KernelContext {
  const PipelineConfig& config;
  io::StageStore& store;
  /// Stage read by this kernel (empty for kernel 0; kernel 3 reads the
  /// in-memory kernel-2 matrix, not a stage).
  std::string in_stage;
  /// Stage written by this kernel (empty for kernels 2-3).
  std::string out_stage;
  /// Scratch stage for spills (external sort runs).
  std::string temp_stage;
  /// Optional observability hooks (trace recorder, metrics registry);
  /// both members may be null.
  obs::Hooks hooks{};
  /// When set, per-iteration kernel-3 telemetry is appended here (the
  /// runner points this at the PipelineResult's k3_iterations).
  std::vector<sparse::IterationStats>* k3_sink = nullptr;
  /// Optional log override; kernels log through log() below.
  std::function<void(std::string_view)> logger{};

  void log(const std::string& message) const {
    if (logger) {
      logger(message);
    } else {
      util::log_info(message);
    }
  }

  /// Accumulates into a named counter (no-op without a registry).
  void metric(const std::string& key, double value) const {
    if (hooks.metrics != nullptr) hooks.metrics->counter(key).add(value);
  }

  /// Opens a sub-kernel span ("k1/radix_sort", ...). Inactive — a null
  /// check, nothing more — when tracing is off.
  [[nodiscard]] obs::Span span(const char* name) const {
    return obs::Span(hooks.trace, name);
  }

  /// Per-iteration kernel-3 observer: appends to k3_sink and records a
  /// "k3/iter" span per iteration carrying its iteration number, L1
  /// residual and rank sum. Empty (falsy) when neither telemetry consumer
  /// is attached, so the iteration loop skips its clock readings.
  [[nodiscard]] sparse::IterationObserver k3_observer() const {
    if (k3_sink == nullptr && !hooks.tracing()) return {};
    auto* sink = k3_sink;
    const obs::Hooks h = hooks;
    return [sink, h](const sparse::IterationStats& stats) {
      if (sink != nullptr) sink->push_back(stats);
      if (h.tracing()) {
        // The iteration just ended; back-date the span start by its
        // duration so consecutive iterations tile without overlapping.
        const std::uint64_t end = h.trace->now_us();
        const auto dur = std::min(
            static_cast<std::uint64_t>(stats.seconds * 1e6), end);
        util::JsonWriter args;
        args.begin_object();
        args.field("iteration", static_cast<std::int64_t>(stats.iteration));
        args.field("residual_l1", stats.residual_l1);
        args.field("rank_sum", stats.rank_sum);
        args.end_object();
        h.trace->record_complete("k3/iter", end - dur, dur, args.str());
      }
    };
  }

  /// The configured PageRank parameters with k3_observer() attached — what
  /// every backend's kernel 3 iterates with.
  [[nodiscard]] sparse::PageRankConfig k3_config() const {
    sparse::PageRankConfig pr = config.pagerank_config();
    pr.observer = k3_observer();
    return pr;
  }

  /// The stage codec this pipeline is configured with. `flavor` picks the
  /// TSV parse/format flavor (interpreted-stack backends pass kGeneric).
  [[nodiscard]] const io::StageCodec& codec(
      io::Codec flavor = io::Codec::kFast) const {
    return make_stage_codec(config, flavor);
  }

  /// Reads an entire stage as a decoded edge list, streamed chunk by chunk
  /// through the configured codec. The list is reserved at M: K0 and K1
  /// each write exactly M records.
  [[nodiscard]] gen::EdgeList read_stage(
      const std::string& stage, io::Codec flavor = io::Codec::kFast) const {
    return io::read_all_edges(store, stage, codec(flavor), hooks,
                              config.num_edges());
  }

  /// Feeds one batch of in_stage's records to kernel 2's CSR build. K2's
  /// input is K1's output, so a batch out of row order is a broken stage:
  /// it throws InvariantError naming the stage and is never re-sorted.
  void add_stage_edges(sparse::CsrBuilder& builder,
                       const gen::EdgeList& batch) const {
    if (!builder.add(batch)) {
      throw util::InvariantError(
          "kernel2: stage '" + in_stage +
          "' is not grouped by row (not kernel 1's output)");
    }
  }
};

}  // namespace prpb::core
