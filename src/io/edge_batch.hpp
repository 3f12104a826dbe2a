// Typed edge-batch streaming over stage shards. Kernels deal in batches
// of (start, end) records; the codec (TSV or binary, src/io/stage_codec.*)
// and the storage medium (src/io/stage_store.*) are both injected, so no
// kernel hand-rolls parse/format loops against raw bytes.
//
// EdgeBatchReader is the one edge reader and ShardWriter the one shard
// writer: stage scans, whole-stage reads (read_all_edges, read_edge_shard
// in src/io/edge_files.*), the external sort's spill runs and its merge
// all go through them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gen/edge.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace prpb::io {

/// Block size per-edge appends are coalesced into before hitting the
/// encoder.
inline constexpr std::size_t kDefaultBatchEdges = std::size_t{1} << 16;

/// Bytes of a store chunk handed to the decoder per step. A batch holds
/// the records one slice completes, whatever the store's chunk size: for
/// the binary codec, the block carried over into the slice (at most
/// binfmt::kMaxBlockEdges records from our encoder) plus the blocks lying
/// wholly inside it.
inline constexpr std::size_t kDecodeSliceBytes = std::size_t{64} << 10;

/// The edge reader: decodes a stage's shards (or an explicit shard list)
/// through StageReader::read_chunk(). next() feeds kDecodeSliceBytes
/// slices into the caller's batch, so memory is one store chunk plus one
/// batch, whatever the stage size; read_all() feeds whole store chunks
/// onto the end of one list.
class EdgeBatchReader {
 public:
  /// Every shard of `stage`, in sorted shard order. With hooks attached,
  /// decode time is accumulated per shard and emitted as one
  /// "codec/decode" event per shard, and every next() batch size feeds
  /// the "io/batch_edges" histogram.
  EdgeBatchReader(StageStore& store, std::string stage,
                  const StageCodec& codec, obs::Hooks hooks = {});
  /// Only the named shards of `stage`, in the order given.
  EdgeBatchReader(StageStore& store, std::string stage,
                  std::vector<std::string> shards, const StageCodec& codec,
                  obs::Hooks hooks = {});

  /// Clears `batch` and decodes slices into it until it holds at least
  /// one record. Returns false once the stage is exhausted (batch left
  /// empty).
  bool next(gen::EdgeList& batch);

  /// Decodes every remaining record onto the end of `edges` (nothing is
  /// cleared), feeding whole store chunks.
  void read_all(gen::EdgeList& edges);

  [[nodiscard]] std::uint64_t edges_read() const { return edges_read_; }

 private:
  /// One decode step: opens the next shard if none is open, then feeds at
  /// most `max_bytes` of the current chunk to its decoder, appending to
  /// `out`, or finishes the shard at its EOF. Returns false once every
  /// shard is done.
  bool step(gen::EdgeList& out, std::size_t max_bytes);

  StageStore& store_;
  std::string stage_;
  const StageCodec& codec_;
  std::vector<std::string> shards_;
  std::size_t shard_index_ = 0;
  std::unique_ptr<StageReader> reader_;     // null between shards
  std::unique_ptr<StageDecoder> decoder_;
  std::string_view chunk_;  // not-yet-decoded rest of the current chunk
  std::uint64_t edges_read_ = 0;
  obs::AccumulatingSpan decode_span_;
  obs::Histogram* batch_edges_ = nullptr;  // null without metrics
};

/// Streams edges into one named shard. No boundary math — this is what
/// concurrent per-shard producers (the parallel backend's kernel 0, the
/// dist ranks), the external sort's spill runs and EdgeBatchWriter use.
/// Per-edge appends are coalesced into blocks so the binary codec never
/// emits degenerate one-record blocks.
class ShardWriter {
 public:
  /// With hooks attached, encode time is accumulated and emitted as one
  /// "codec/encode" event when the shard closes.
  ShardWriter(StageStore& store, const std::string& stage,
              const std::string& shard, const StageCodec& codec,
              obs::Hooks hooks = {});

  void append(const gen::Edge& edge);
  void append(const gen::Edge* edges, std::size_t count);
  void append(const gen::EdgeList& edges) {
    append(edges.data(), edges.size());
  }
  /// Finalizes the shard. Must be called exactly once.
  void close();

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }
  [[nodiscard]] std::uint64_t edges_written() const { return edges_; }

 private:
  void flush_pending();

  std::unique_ptr<StageWriter> writer_;
  std::unique_ptr<StageEncoder> encoder_;
  gen::EdgeList pending_;
  std::uint64_t bytes_ = 0;
  std::uint64_t edges_ = 0;
  obs::AccumulatingSpan encode_span_;
  std::string trace_args_;  // pre-rendered shard args; empty when inert
};

/// Writes a declared number of edges into `shards` shards of a stage,
/// splitting at the same near-equal shard_boundaries() the stage layout
/// has always used (trailing shards may be empty). Each shard is written
/// by a ShardWriter. The stage is cleared on construction; close() must
/// be called once and verifies that exactly `total_edges` were appended.
class EdgeBatchWriter {
 public:
  /// With hooks attached, encode time is accumulated per output shard and
  /// emitted as one "codec/encode" event per shard.
  EdgeBatchWriter(StageStore& store, std::string stage,
                  const StageCodec& codec, std::size_t shards,
                  std::uint64_t total_edges, obs::Hooks hooks = {});

  void append(const gen::Edge& edge);
  void append(const gen::Edge* edges, std::size_t count);
  void append(const gen::EdgeList& edges) {
    append(edges.data(), edges.size());
  }
  void close();

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }
  [[nodiscard]] std::uint64_t edges_written() const { return written_; }

 private:
  /// Closes the current shard and opens the next one.
  void next_shard();
  /// Rolls past full shards to the one that owns the next edge; returns
  /// the edges that shard still takes.
  std::uint64_t room();

  StageStore& store_;
  std::string stage_;
  const StageCodec& codec_;
  std::vector<std::uint64_t> bounds_;
  std::size_t shard_ = 0;
  std::optional<ShardWriter> writer_;  // empty once closed
  std::uint64_t written_ = 0;
  std::uint64_t bytes_ = 0;
  obs::Hooks hooks_;
};

/// Writes one shard in a single call; returns bytes written.
std::uint64_t write_edge_shard(StageStore& store, const std::string& stage,
                               const std::string& shard,
                               const gen::EdgeList& edges,
                               const StageCodec& codec);

}  // namespace prpb::io
