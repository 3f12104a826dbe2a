#include "sort/external_sort.hpp"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <vector>

#include "io/edge_batch.hpp"
#include "util/error.hpp"

namespace prpb::sort {

void ExternalSortConfig::validate() const {
  util::require(memory_budget_bytes >= sizeof(gen::Edge) * 1024,
                "external sort: memory budget must allow >= 1024 edges");
  util::require(fan_in >= 2, "external sort: fan_in must be >= 2");
  util::require(output_shards >= 1,
                "external sort: output_shards must be >= 1");
  util::require(stage_codec != nullptr,
                "external sort: stage_codec must be set");
}

namespace {

std::string run_name(std::size_t generation, std::size_t index) {
  char name[48];
  std::snprintf(name, sizeof(name), "run_g%03zu_%05zu.bin", generation, index);
  return name;
}

/// One run being merged: a bounded reader and a cursor into its batch.
struct RunCursor {
  RunCursor(io::StageStore& store, const std::string& stage,
            const std::string& run)
      : reader(store, stage, {run}, io::binary_codec()) {}

  io::EdgeBatchReader reader;
  gen::EdgeList batch;
  std::size_t pos = 0;

  /// Steps to the run's next edge; false once the run is exhausted.
  bool advance() {
    if (++pos < batch.size()) return true;
    pos = 0;
    return reader.next(batch);
  }
  [[nodiscard]] const gen::Edge& edge() const { return batch[pos]; }
};

/// Merges the named runs of `temp_stage` into `emit`. The heap holds
/// (edge, source index); the source index is a tiebreaker so the merge is
/// deterministic.
template <typename Emit>
void merge_runs(io::StageStore& store, const std::string& temp_stage,
                const std::vector<std::string>& inputs, SortKey key,
                Emit&& emit) {
  struct HeapItem {
    gen::Edge edge;
    std::size_t source;
  };
  const auto greater = [key](const HeapItem& a, const HeapItem& b) {
    if (edge_less(b.edge, a.edge, key)) return true;
    if (edge_less(a.edge, b.edge, key)) return false;
    return a.source > b.source;
  };
  std::vector<RunCursor> runs;
  runs.reserve(inputs.size());
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(greater)>
      heap(greater);
  for (const auto& name : inputs) {
    RunCursor& run = runs.emplace_back(store, temp_stage, name);
    if (run.reader.next(run.batch)) heap.push({run.edge(), runs.size() - 1});
  }
  while (!heap.empty()) {
    const HeapItem item = heap.top();
    heap.pop();
    emit(item.edge);
    RunCursor& run = runs[item.source];
    if (run.advance()) heap.push({run.edge(), item.source});
  }
}

}  // namespace

ExternalSortStats external_sort_stage(io::StageStore& store,
                                      const std::string& in_stage,
                                      const std::string& out_stage,
                                      const std::string& temp_stage,
                                      const ExternalSortConfig& config) {
  config.validate();
  const io::StageCodec& codec = *config.stage_codec;
  store.clear_stage(temp_stage);
  ExternalSortStats stats;

  // --- Phase 1: run formation ---------------------------------------------
  const std::uint64_t slice_edges =
      std::max<std::uint64_t>(1024, config.memory_budget_bytes /
                                        (2 * sizeof(gen::Edge)));
  std::vector<std::string> runs;
  gen::EdgeList slice;
  slice.reserve(slice_edges);
  auto spill_slice = [&] {
    if (slice.empty()) return;
    obs::Span span(config.hooks.trace, "k1/sort/run_gen");
    radix_sort(slice, config.key);
    const std::string name = run_name(0, runs.size());
    io::ShardWriter writer(store, temp_stage, name, io::binary_codec());
    writer.append(slice);
    writer.close();
    stats.spill_bytes += writer.bytes_written();
    runs.push_back(name);
    slice.clear();
  };
  io::EdgeBatchReader reader(store, in_stage, codec, config.hooks);
  gen::EdgeList batch;
  while (reader.next(batch)) {
    for (const auto& edge : batch) {
      slice.push_back(edge);
      if (slice.size() >= slice_edges) spill_slice();
    }
  }
  spill_slice();
  stats.edges = reader.edges_read();
  stats.initial_runs = runs.size();

  // --- Phase 2: cascaded k-way merge ---------------------------------------
  std::size_t generation = 1;
  while (runs.size() > config.fan_in) {
    obs::Span pass_span(config.hooks.trace, "k1/sort/merge_pass");
    std::vector<std::string> next;
    for (std::size_t lo = 0; lo < runs.size(); lo += config.fan_in) {
      const std::size_t hi = std::min(runs.size(), lo + config.fan_in);
      const std::vector<std::string> group(
          runs.begin() + static_cast<std::ptrdiff_t>(lo),
          runs.begin() + static_cast<std::ptrdiff_t>(hi));
      const std::string name = run_name(generation, next.size());
      io::ShardWriter writer(store, temp_stage, name, io::binary_codec());
      merge_runs(store, temp_stage, group, config.key,
                 [&writer](const gen::Edge& edge) { writer.append(edge); });
      writer.close();
      stats.spill_bytes += writer.bytes_written();
      next.push_back(name);
      for (const auto& used : group) store.remove_shard(temp_stage, used);
    }
    runs = std::move(next);
    ++generation;
    ++stats.merge_passes;
  }

  // --- Final merge straight into the sharded output ------------------------
  obs::Span final_span(config.hooks.trace, "k1/sort/final_merge");
  io::EdgeBatchWriter writer(store, out_stage, codec, config.output_shards,
                             stats.edges, config.hooks);
  merge_runs(store, temp_stage, runs, config.key,
             [&writer](const gen::Edge& edge) { writer.append(edge); });
  writer.close();
  ++stats.merge_passes;
  for (const auto& used : runs) store.remove_shard(temp_stage, used);

  util::ensure(writer.edges_written() == stats.edges,
               "external sort: output edge count mismatch");
  return stats;
}

}  // namespace prpb::sort
