// Pipeline configuration — the benchmark's free parameters (paper §IV):
// scale S, edge factor k (fixed at 16 by the benchmark), number of files,
// damping factor c = 0.85, 20 PageRank iterations, the staging root, and
// the storage tier stages live on (the paper's future-work "different
// storage (Lustre, local disk)" knob; `mem` is the tmpfs-style ablation).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/pagerank.hpp"

namespace prpb::core {

struct PipelineConfig {
  int scale = 16;
  int edge_factor = 16;
  std::uint64_t seed = 20160205;
  std::string generator = "kronecker";  ///< kronecker | bter | ppl
  /// Graph source for kernel 0 (core/graph_source.hpp): "generator" runs
  /// the paper's K0 through the backend; "external" ingests a real edge
  /// list from input_path, so kernels 1-3 run unchanged on real graphs.
  std::string source = "generator";
  /// External graph file (SNAP-style .txt/.tsv/.csv edge list, or .mtx
  /// MatrixMarket). Required iff source == "external".
  std::filesystem::path input_path;
  /// Kernel-3 algorithms to run over the kernel-2 matrix, in order (see
  /// core/algorithm.hpp). "pagerank" is the paper's fixed pipeline.
  std::vector<std::string> algorithms{"pagerank"};
  std::size_t num_files = 1;            ///< shards per stage (free parameter)
  int iterations = 20;
  double damping = 0.85;
  sort::SortKey sort_key = sort::SortKey::kStartEnd;
  /// Stage storage tier: "dir" (shard files under work_dir) or "mem"
  /// (in-memory shard buffers — the tmpfs ablation).
  std::string storage = "dir";
  /// Stage encoding: "tsv" (the paper's format, the default) or "binary"
  /// (columnar little-endian — the serialization ablation).
  std::string stage_format = "tsv";
  /// Staging root for dir storage; kernel stages live in subdirectories of
  /// it. Unused (and may be empty) with mem storage.
  std::filesystem::path work_dir;
  /// RAM budget for kernel 1; 0 means unlimited (always in-memory).
  /// When the in-memory sort would exceed it, the external sort runs.
  std::uint64_t memory_budget_bytes = 0;
  /// True graph size of an external source, filled by the runner once the
  /// source materializes (or resumes) its stages — unknown before that,
  /// because N is the number of distinct vertex ids in the input file.
  /// Zero (and unused) for the generator source.
  std::uint64_t external_vertices = 0;
  std::uint64_t external_edges = 0;

  /// N: 2^scale for the generator source, the remapped vertex count for
  /// external graphs (0 until the source has materialized).
  [[nodiscard]] std::uint64_t num_vertices() const {
    return source == "external" ? external_vertices : 1ULL << scale;
  }
  /// M (with duplicates, pre-filter): edge_factor·N for the generator
  /// source, the input file's edge count for external graphs.
  [[nodiscard]] std::uint64_t num_edges() const {
    return source == "external"
               ? external_edges
               : static_cast<std::uint64_t>(edge_factor) * num_vertices();
  }

  /// The kernel-3 PageRank parameters (iterations, damping, seed); every
  /// backend's pagerank takes them from here. No observer is attached.
  [[nodiscard]] sparse::PageRankConfig pagerank_config() const;

  /// Throws ConfigError on invalid values.
  void validate() const;
};

/// Builds the stage store the configuration asks for ("dir" rooted at
/// work_dir, or "mem"). Throws ConfigError for unknown storage names.
std::unique_ptr<io::StageStore> make_stage_store(const PipelineConfig& config);

/// Resolves the configured stage codec. `flavor` picks the TSV parse/format
/// flavor (interpreted-stack backends pass kGeneric); binary ignores it.
/// Throws ConfigError for unknown stage_format names.
const io::StageCodec& make_stage_codec(const PipelineConfig& config,
                                       io::Codec flavor = io::Codec::kFast);

/// Fingerprint of every configuration parameter that determines stage
/// bytes (scale, edge factor, seed, generator, shard count, stage format,
/// sort key). Checkpoint manifests record it so --resume never reuses
/// stages produced under a different configuration.
std::uint64_t stage_config_fingerprint(const PipelineConfig& config);

/// Table II row: the benchmark run-size bookkeeping for one scale.
struct RunSize {
  int scale = 0;
  std::uint64_t max_vertices = 0;  ///< N = 2^S
  std::uint64_t max_edges = 0;     ///< M = k*N
  std::uint64_t memory_bytes = 0;  ///< 16 bytes per edge (paper's accounting)
};

/// Computes the Table II row for a scale (edge factor defaults to 16).
RunSize run_size(int scale, int edge_factor = 16);

}  // namespace prpb::core
