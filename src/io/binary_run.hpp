// Binary spill format for the external (out-of-core) sort: fixed 16-byte
// little-endian Edge records, no header. Used only for intermediate runs;
// the benchmark's visible stages go through a StageCodec
// (src/io/stage_codec.*). Runs are written through the StageWriter /
// StageReader seam so spills can live in any StageStore (and get counted
// with the rest of the kernel's traffic).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "gen/edge.hpp"
#include "io/stage_stream.hpp"

namespace prpb::io {

/// Writes Edge records as raw bytes.
class BinaryRunWriter {
 public:
  explicit BinaryRunWriter(std::unique_ptr<StageWriter> writer);

  void write(const gen::Edge& edge);
  void write_all(const gen::EdgeList& edges);
  void close();
  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  std::unique_ptr<StageWriter> writer_;
  std::uint64_t records_ = 0;
};

/// Streams Edge records back; `next()` returns nullopt at EOF.
class BinaryRunReader {
 public:
  explicit BinaryRunReader(std::unique_ptr<StageReader> reader);

  std::optional<gen::Edge> next();
  /// Fills `out` with up to `max_records` records; returns count read.
  std::size_t next_batch(gen::EdgeList& out, std::size_t max_records);

 private:
  std::unique_ptr<StageReader> reader_;
  std::string pending_;     // partial record bytes carried across chunks
  std::string_view chunk_;  // current chunk view
  std::size_t chunk_pos_ = 0;
};

}  // namespace prpb::io
