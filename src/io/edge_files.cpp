#include "io/edge_files.hpp"

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

std::uint64_t write_edges_impl(
    StageStore& store, const std::string& stage, std::size_t shards,
    const StageCodec& codec, std::uint64_t total, obs::Hooks hooks,
    const std::function<void(std::uint64_t, std::uint64_t, gen::EdgeList&)>&
        producer) {
  EdgeBatchWriter writer(store, stage, codec, shards, total, hooks);
  gen::EdgeList batch;
  for (std::uint64_t lo = 0; lo < total; lo += kDefaultBatchEdges) {
    const std::uint64_t hi =
        std::min<std::uint64_t>(total, lo + kDefaultBatchEdges);
    batch.clear();
    producer(lo, hi, batch);
    writer.append(batch);
  }
  writer.close();
  return writer.bytes_written();
}

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

void stream_shard_impl(StageReader& reader, const std::string& label,
                       const StageCodec& codec, obs::Hooks hooks,
                       const std::function<void(const gen::EdgeList&)>& sink) {
  gen::EdgeList batch;
  const auto decoder = codec.make_decoder();
  obs::AccumulatingSpan span(hooks.trace, "codec/decode");
  for (;;) {
    const auto chunk = reader.read_chunk();
    if (chunk.empty()) break;
    batch.clear();
    span.begin();
    decoder->feed(chunk, batch);
    span.end();
    if (!batch.empty()) sink(batch);
  }
  batch.clear();
  span.begin();
  decoder->finish(batch, label);
  span.end();
  if (span.active()) span.flush(decode_trace_args(label));
  if (!batch.empty()) sink(batch);
}

}  // namespace

std::uint64_t write_generated_edges(StageStore& store,
                                    const std::string& stage,
                                    const gen::EdgeGenerator& generator,
                                    std::size_t shards,
                                    const StageCodec& codec,
                                    obs::Hooks hooks) {
  return write_edges_impl(
      store, stage, shards, codec, generator.num_edges(), hooks,
      [&generator](std::uint64_t lo, std::uint64_t hi, gen::EdgeList& out) {
        generator.generate_range(lo, hi, out);
      });
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
                             const StageCodec& codec, obs::Hooks hooks) {
  // Shards decode straight onto the end of one list: no per-shard copy.
  gen::EdgeList edges;
  for (const auto& shard : store.list(stage)) {
    const auto reader = store.open_read(stage, shard);
    read_shard_impl(*reader, stage + "/" + shard, codec, hooks, edges);
  }
  return edges;
}

void stream_all_edges(StageStore& store, const std::string& stage,
                      const StageCodec& codec,
                      const std::function<void(const gen::EdgeList&)>& sink,
                      obs::Hooks hooks) {
  for (const auto& shard : store.list(stage)) {
    const auto reader = store.open_read(stage, shard);
    stream_shard_impl(*reader, stage + "/" + shard, codec, hooks, sink);
  }
}

std::uint64_t count_edges(StageStore& store, const std::string& stage,
                          const StageCodec& codec) {
  std::uint64_t total = 0;
  stream_all_edges(store, stage, codec,
                   [&total](const gen::EdgeList& batch) {
                     total += batch.size();
                   });
  return total;
}

}  // namespace prpb::io
