// Abstract byte-stream interfaces for stage I/O. Every kernel moves its
// stage data through these, so the storage medium (on-disk shard files,
// in-memory buffers, counting decorators) is swappable without touching
// kernel code. FileReader/FileWriter (src/io/file_stream.hpp) are the
// on-disk implementations; MemStageStore supplies in-memory ones.
//
// Readers expose two access styles:
//  * read_chunk() — sequential bounded chunks: the streaming lane.
//    EdgeBatchReader (src/io/edge_batch.hpp) is its one consumer among the
//    edge helpers, and every bounded-memory scan goes through it;
//  * view() — the whole remaining shard as ONE contiguous immutable span:
//    the whole-shard lane (read_all_edges, read_edge_shard, checkpoint
//    verification) and the zero-copy read path. DirStageStore serves it
//    from a memory mapping, MemStageStore from the shard buffer itself,
//    and any reader that cannot (the fault decorator, mid-stream readers)
//    falls back to draining read_chunk() into an owned buffer, so every
//    decorator composes unchanged — counted bytes still count, injected
//    faults still fire. The counting decorator forwards view(), so the
//    zero-copy path survives it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace prpb::io {

/// A contiguous, immutable view of one shard's payload bytes. The view
/// owns whatever keeps the bytes alive (a file mapping, a shared buffer,
/// or a drained copy), so bytes() stays valid for the view's lifetime —
/// including after the reader and the store that produced it are gone.
class ReadView {
 public:
  virtual ~ReadView() = default;

  /// The shard payload as one contiguous span, stable for the view's
  /// lifetime.
  [[nodiscard]] virtual std::span<const std::byte> bytes() const = 0;

  /// True when bytes() aliases storage memory directly (a mapping or an
  /// in-memory shard buffer) rather than a drained copy.
  [[nodiscard]] virtual bool zero_copy() const { return false; }

  /// The same bytes as a character view (what the codecs consume).
  [[nodiscard]] std::string_view chars() const {
    const auto b = bytes();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  [[nodiscard]] std::size_t size() const { return bytes().size(); }
};

/// The universal fallback view: owns a drained copy of the shard bytes.
class BufferedReadView final : public ReadView {
 public:
  explicit BufferedReadView(std::string data) : data_(std::move(data)) {}

  [[nodiscard]] std::span<const std::byte> bytes() const override {
    return {reinterpret_cast<const std::byte*>(data_.data()), data_.size()};
  }

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

  /// Returns the shard's not-yet-consumed bytes as one contiguous view,
  /// exhausting the reader (read_chunk() reports EOF afterwards).
  /// Normally called before any read_chunk(), so the view is the whole
  /// shard. The base implementation drains read_chunk() into an owned
  /// buffer — correct over any decorator stack; readers whose bytes are
  /// already contiguous in memory override it with a zero-copy view.
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
