// Abstract byte-stream interfaces for stage I/O. Every kernel moves its
// stage data through these, so the storage medium (on-disk shard files,
// in-memory buffers, counting decorators) is swappable without touching
// kernel code. FileReader/FileWriter (src/io/file_stream.hpp) are the
// on-disk implementations; MemStageStore supplies in-memory ones.
//
// Readers have one protocol: read_chunk(), sequential bounded chunks.
// Every edge read (EdgeBatchReader, and through it read_all_edges and
// read_edge_shard) and the checkpoint read-back stream through it, so
// every decorator composes unchanged: counted bytes still count, injected
// faults still fire. view() drains the same chunks into one owned buffer,
// for the few small reads (control files, the dataframe CSV reader) that
// want a whole shard at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace prpb::io {

/// One shard's payload bytes, drained into a buffer the view owns, so
/// bytes() stays valid for the view's lifetime — including after the
/// reader and the store that produced it are gone.
class ReadView {
 public:
  explicit ReadView(std::string data) : data_(std::move(data)) {}

  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {reinterpret_cast<const std::byte*>(data_.data()), data_.size()};
  }
  /// The same bytes as a character view.
  [[nodiscard]] std::string_view chars() const { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

 private:
  std::string data_;
};

/// Sequential chunked reader over one shard of one stage.
class StageReader {
 public:
  virtual ~StageReader() = default;

  /// Returns the next chunk (empty at EOF). The view is valid until the
  /// next read_chunk() call.
  virtual std::string_view read_chunk() = 0;

  /// Drains the shard's not-yet-consumed bytes through read_chunk() into
  /// one owned view, exhausting the reader (read_chunk() reports EOF
  /// afterwards). Virtual only because perfbench's timing decorator still
  /// forwards it; nothing in src/ overrides it.
  [[nodiscard]] virtual std::unique_ptr<ReadView> view();

  [[nodiscard]] virtual std::uint64_t bytes_read() const = 0;
};

/// Buffered writer over one shard of one stage. Codecs append into the
/// staging buffer in place and call maybe_flush() afterwards — the same
/// protocol FileWriter always had.
class StageWriter {
 public:
  virtual ~StageWriter() = default;

  /// Exposes the staging buffer so codecs can append in place.
  virtual std::string& buffer() = 0;
  virtual void maybe_flush() = 0;
  /// Flushes and commits; safe to call once, after which writes are invalid.
  virtual void close() = 0;

  [[nodiscard]] virtual std::uint64_t bytes_written() const = 0;

  /// Convenience append-through-buffer.
  void write(std::string_view data) {
    buffer().append(data.data(), data.size());
    maybe_flush();
  }
};

}  // namespace prpb::io
