// RAII buffered file streams over C stdio. The pipeline moves gigabytes of
// text through these; the buffer sizes are tuned for streaming throughput,
// not for many small reads.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "io/stage_stream.hpp"

namespace prpb::io {

inline constexpr std::size_t kDefaultBufferBytes = 1 << 20;  // 1 MiB

/// Buffered writer. Data is staged in an internal string and flushed in
/// large blocks. Throws IoError on any failure. Implements StageWriter, so
/// it doubles as the on-disk shard writer of DirStageStore.
class FileWriter : public StageWriter {
 public:
  explicit FileWriter(const std::filesystem::path& path,
                      std::size_t buffer_bytes = kDefaultBufferBytes);
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter() override;

  void write(std::string_view data);
  /// Exposes the staging buffer so codecs can append in place; call
  /// maybe_flush() afterwards.
  std::string& buffer() override { return buffer_; }
  void maybe_flush() override;
  /// Flushes and closes; safe to call once, after which write() is invalid.
  void close() override;

  [[nodiscard]] std::uint64_t bytes_written() const override {
    return bytes_written_;
  }

 private:
  void flush_buffer();

  std::FILE* file_ = nullptr;
  std::filesystem::path path_;
  std::string buffer_;
  std::size_t buffer_limit_;
  std::uint64_t bytes_written_ = 0;
};

/// Buffered reader delivering sequential chunks. Throws IoError on failure.
/// Implements StageReader (the on-disk shard reader of DirStageStore).
class FileReader : public StageReader {
 public:
  explicit FileReader(const std::filesystem::path& path,
                      std::size_t buffer_bytes = kDefaultBufferBytes);
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;
  ~FileReader() override;

  /// Reads up to buffer capacity; returns the chunk (empty at EOF).
  /// The view is valid until the next read_chunk() call.
  std::string_view read_chunk() override;

  /// Zero-copy whole-file view via a memory mapping when the mmap policy
  /// allows and nothing has been consumed yet; otherwise the buffered
  /// drain of the base class. Either way the reader is exhausted after.
  [[nodiscard]] std::unique_ptr<ReadView> view() override;

  [[nodiscard]] bool eof() const { return eof_; }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return bytes_read_;
  }

 private:
  std::FILE* file_ = nullptr;
  std::filesystem::path path_;
  std::size_t buffer_bytes_;
  std::string buffer_;
  bool eof_ = false;
  std::uint64_t bytes_read_ = 0;
};

/// Reads an entire file into a string (used for small control files only).
std::string read_file(const std::filesystem::path& path);

/// Writes `data` to `path`, truncating.
void write_file(const std::filesystem::path& path, std::string_view data);

}  // namespace prpb::io
