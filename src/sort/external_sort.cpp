#include "sort/external_sort.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "io/binary_run.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
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

/// Merges the named runs of `temp_stage` into `emit`. The heap holds
/// (edge, source index); the source index is a tiebreaker so the merge is
/// deterministic.
void merge_runs(io::StageStore& store, const std::string& temp_stage,
                const std::vector<std::string>& inputs, SortKey key,
                const std::function<void(const gen::Edge&)>& emit) {
  struct HeapItem {
    gen::Edge edge;
    std::size_t source;
  };
  const auto greater = [key](const HeapItem& a, const HeapItem& b) {
    if (edge_less(b.edge, a.edge, key)) return true;
    if (edge_less(a.edge, b.edge, key)) return false;
    return a.source > b.source;
  };
  std::vector<std::unique_ptr<io::BinaryRunReader>> readers;
  readers.reserve(inputs.size());
  for (const auto& name : inputs) {
    readers.push_back(std::make_unique<io::BinaryRunReader>(
        store.open_read(temp_stage, name)));
  }

  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(greater)>
      heap(greater);
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (auto edge = readers[i]->next()) heap.push({*edge, i});
  }
  while (!heap.empty()) {
    const HeapItem item = heap.top();
    heap.pop();
    emit(item.edge);
    if (auto edge = readers[item.source]->next()) {
      heap.push({*edge, item.source});
    }
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
    io::BinaryRunWriter writer(store.open_write(temp_stage, name));
    writer.write_all(slice);
    writer.close();
    stats.spill_bytes += slice.size() * sizeof(gen::Edge);
    runs.push_back(name);
    slice.clear();
  };
  io::stream_all_edges(store, in_stage, codec,
                       [&](const gen::EdgeList& batch) {
                         for (const auto& edge : batch) {
                           slice.push_back(edge);
                           stats.edges += 1;
                           if (slice.size() >= slice_edges) spill_slice();
                         }
                       },
                       config.hooks);
  spill_slice();
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
      io::BinaryRunWriter writer(store.open_write(temp_stage, name));
      merge_runs(store, temp_stage, group, config.key,
                 [&writer](const gen::Edge& edge) { writer.write(edge); });
      writer.close();
      stats.spill_bytes += writer.records_written() * sizeof(gen::Edge);
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
