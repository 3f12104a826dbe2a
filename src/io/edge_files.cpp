#include "io/edge_files.hpp"

#include <algorithm>

#include "io/edge_batch.hpp"
#include "util/error.hpp"

namespace prpb::io {

std::vector<std::uint64_t> shard_boundaries(std::uint64_t total,
                                            std::size_t shards) {
  util::require(shards >= 1, "shard_boundaries: shards must be >= 1");
  std::vector<std::uint64_t> bounds(shards + 1);
  for (std::size_t i = 0; i <= shards; ++i) {
    bounds[i] = total * i / shards;
  }
  return bounds;
}

std::uint64_t write_generated_edges(StageStore& store,
                                    const std::string& stage,
                                    const gen::EdgeGenerator& generator,
                                    std::size_t shards,
                                    const StageCodec& codec,
                                    obs::Hooks hooks) {
  const std::uint64_t total = generator.num_edges();
  EdgeBatchWriter writer(store, stage, codec, shards, total, hooks);
  gen::EdgeList batch;
  for (std::uint64_t lo = 0; lo < total; lo += kDefaultBatchEdges) {
    batch.clear();
    generator.generate_range(
        lo, std::min<std::uint64_t>(total, lo + kDefaultBatchEdges), batch);
    writer.append(batch);
  }
  writer.close();
  return writer.bytes_written();
}

std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              const StageCodec& codec, obs::Hooks hooks) {
  EdgeBatchWriter writer(store, stage, codec, shards, edges.size(), hooks);
  writer.append(edges);
  writer.close();
  return writer.bytes_written();
}

gen::EdgeList read_edge_shard(StageStore& store, const std::string& stage,
                              const std::string& shard,
                              const StageCodec& codec, obs::Hooks hooks) {
  gen::EdgeList edges;
  EdgeBatchReader(store, stage, {shard}, codec, hooks).read_all(edges);
  return edges;
}

gen::EdgeList read_all_edges(StageStore& store, const std::string& stage,
                             const StageCodec& codec, obs::Hooks hooks,
                             std::uint64_t expected_edges) {
  // Shards decode straight onto the end of one list: no per-shard copy.
  gen::EdgeList edges;
  edges.reserve(expected_edges);
  EdgeBatchReader(store, stage, codec, hooks).read_all(edges);
  return edges;
}

std::uint64_t count_edges(StageStore& store, const std::string& stage,
                          const StageCodec& codec) {
  EdgeBatchReader reader(store, stage, codec);
  gen::EdgeList batch;
  while (reader.next(batch)) {
  }
  return reader.edges_read();
}

}  // namespace prpb::io
