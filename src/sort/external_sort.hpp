// Out-of-core external merge sort for kernel 1 at scales where the edge list
// exceeds RAM. Classic two-phase design:
//   run formation — stream the input stage in memory-budget-sized slices,
//                   sort each slice in memory (radix), spill each as a
//                   binary_codec() shard through io::ShardWriter;
//   k-way merge   — merge runs through a heap, one io::EdgeBatchReader per
//                   run, cascading when the run count exceeds the fan-in,
//                   and write the sorted stage.
// The merge holds fan-in × (one store chunk + one decode slice's records,
// or one binary block of at most 2^16 records) besides the heap.
#pragma once

#include <cstdint>
#include <string>

#include "gen/edge.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "obs/trace.hpp"
#include "sort/edge_sort.hpp"

namespace prpb::sort {

/// True when 2·M·16 bytes exceed `budget_bytes`. The in-place radix sort
/// needs only the M·16-byte edge array; the factor 2 keeps the engine
/// choice every budget has always made.
inline bool needs_external_sort(std::uint64_t edge_count,
                                std::uint64_t budget_bytes) {
  return 2 * edge_count * sizeof(gen::Edge) > budget_bytes;
}

struct ExternalSortConfig {
  std::uint64_t memory_budget_bytes = 256ULL << 20;  ///< per-run slice budget
  std::size_t fan_in = 64;          ///< max runs merged per cascade pass
  std::size_t output_shards = 1;    ///< shard count of the sorted stage
  /// Stage encoding for input and output (required).
  const io::StageCodec* stage_codec = nullptr;
  SortKey key = SortKey::kStartEnd;
  /// Optional tracing hooks: spans per spilled run ("k1/sort/run_gen"),
  /// per cascade pass ("k1/sort/merge_pass") and for the final merge.
  obs::Hooks hooks;

  void validate() const;
};

struct ExternalSortStats {
  std::uint64_t edges = 0;
  std::size_t initial_runs = 0;
  std::size_t merge_passes = 0;
  std::uint64_t spill_bytes = 0;  ///< encoded bytes written to spill runs
};

/// Sorts stage `in_stage` of `store` into sharded stage `out_stage`,
/// spilling intermediate runs as binary-codec shards of `temp_stage`
/// (cleared first, drained as the merge consumes them). Works over any StageStore;
/// with a CountingStageStore the spill traffic is counted alongside the
/// stage traffic. Returns run statistics.
ExternalSortStats external_sort_stage(io::StageStore& store,
                                      const std::string& in_stage,
                                      const std::string& out_stage,
                                      const std::string& temp_stage,
                                      const ExternalSortConfig& config);

}  // namespace prpb::sort
