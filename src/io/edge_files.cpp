#include "io/edge_files.hpp"

#include <algorithm>

#include "io/edge_batch.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

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

namespace {

std::string decode_trace_args(const std::string& label) {
  return "{\"shard\":\"" + util::JsonWriter::escape(label) + "\"}";
}

/// Decodes one whole shard, appending its records to `edges`.
void read_shard_impl(StageReader& reader, const std::string& label,
                     const StageCodec& codec, obs::Hooks hooks,
                     gen::EdgeList& edges) {
  const auto decoder = codec.make_decoder();
  obs::AccumulatingSpan span(hooks.trace, "codec/decode");
  // Zero-copy path: take the whole shard as one contiguous view (mmap for
  // dir stores, the owning buffer for mem stores, a buffered drain
  // elsewhere) and let the codec parse it in place.
  const auto view = reader.view();
  span.begin();
  decoder->decode(view->chars(), edges, label);
  span.end();
  if (span.active()) span.flush(decode_trace_args(label));
}

}  // namespace

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
  const auto reader = store.open_read(stage, shard);
  read_shard_impl(*reader, stage + "/" + shard, codec, hooks, edges);
  return edges;
}

gen::EdgeList read_all_edges(StageStore& store, const std::string& stage,
                             const StageCodec& codec, obs::Hooks hooks,
                             std::uint64_t expected_edges) {
  // Shards decode straight onto the end of one list: no per-shard copy.
  gen::EdgeList edges;
  edges.reserve(expected_edges);
  for (const auto& shard : store.list(stage)) {
    const auto reader = store.open_read(stage, shard);
    read_shard_impl(*reader, stage + "/" + shard, codec, hooks, edges);
  }
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
