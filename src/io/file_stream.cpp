#include "io/file_stream.hpp"

#include "io/mmap_file.hpp"
#include "util/error.hpp"

namespace prpb::io {

FileWriter::FileWriter(const std::filesystem::path& path,
                       std::size_t buffer_bytes)
    : path_(path), buffer_limit_(buffer_bytes) {
  file_ = std::fopen(path.c_str(), "wb");
  util::io_require(file_ != nullptr, "cannot open for write: " + path.string());
  buffer_.reserve(buffer_limit_ + 4096);
}

FileWriter::~FileWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; the file may be incomplete on error.
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }
}

void FileWriter::write(std::string_view data) {
  buffer_.append(data.data(), data.size());
  maybe_flush();
}

void FileWriter::maybe_flush() {
  if (buffer_.size() >= buffer_limit_) flush_buffer();
}

void FileWriter::flush_buffer() {
  util::io_require(file_ != nullptr, "write to closed file: " + path_.string());
  if (buffer_.empty()) return;
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  util::io_require(written == buffer_.size(),
                   "short write: " + path_.string());
  bytes_written_ += written;
  buffer_.clear();
}

void FileWriter::close() {
  if (file_ == nullptr) return;
  flush_buffer();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  util::io_require(rc == 0, "close failed: " + path_.string());
}

FileReader::FileReader(const std::filesystem::path& path,
                       std::size_t buffer_bytes)
    : path_(path), buffer_bytes_(buffer_bytes) {
  file_ = std::fopen(path.c_str(), "rb");
  util::io_require(file_ != nullptr, "cannot open for read: " + path.string());
}

FileReader::~FileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string_view FileReader::read_chunk() {
  if (eof_) return {};
  // Allocated on first use: a reader served as a view() never needs it.
  buffer_.resize(buffer_bytes_);
  const std::size_t n = std::fread(buffer_.data(), 1, buffer_.size(), file_);
  if (n < buffer_.size()) {
    util::io_require(std::ferror(file_) == 0, "read error: " + path_.string());
    eof_ = true;
  }
  bytes_read_ += n;
  return std::string_view(buffer_.data(), n);
}

std::unique_ptr<ReadView> FileReader::view() {
  if (!eof_ && bytes_read_ == 0) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (!ec && mmap_policy_allows(static_cast<std::size_t>(size))) {
      MmapFile mapping(path_);
      eof_ = true;
      bytes_read_ = mapping.size();
      return std::make_unique<MmapReadView>(std::move(mapping));
    }
  }
  return StageReader::view();
}

std::string read_file(const std::filesystem::path& path) {
  FileReader reader(path);
  std::string out;
  for (;;) {
    const auto chunk = reader.read_chunk();
    if (chunk.empty()) break;
    out.append(chunk);
  }
  return out;
}

void write_file(const std::filesystem::path& path, std::string_view data) {
  FileWriter writer(path);
  writer.write(data);
  writer.close();
}

}  // namespace prpb::io
