#include "io/binary_run.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace prpb::io {

namespace {
constexpr std::size_t kRecordBytes = sizeof(gen::Edge);

void encode(char* out, const gen::Edge& edge) {
  // Little-endian byte copy; PRPB targets little-endian hosts (asserted in
  // tests) so memcpy of the trivially-copyable struct is the layout.
  std::memcpy(out, &edge, kRecordBytes);
}

gen::Edge decode(const char* in) {
  gen::Edge edge;
  std::memcpy(&edge, in, kRecordBytes);
  return edge;
}
}  // namespace

BinaryRunWriter::BinaryRunWriter(std::unique_ptr<StageWriter> writer)
    : writer_(std::move(writer)) {}

void BinaryRunWriter::write(const gen::Edge& edge) {
  char buf[kRecordBytes];
  encode(buf, edge);
  writer_->write(std::string_view(buf, kRecordBytes));
  ++records_;
}

void BinaryRunWriter::write_all(const gen::EdgeList& edges) {
  for (const auto& edge : edges) write(edge);
}

void BinaryRunWriter::close() { writer_->close(); }

BinaryRunReader::BinaryRunReader(std::unique_ptr<StageReader> reader)
    : reader_(std::move(reader)) {}

std::optional<gen::Edge> BinaryRunReader::next() {
  // Fast path: full record available in the current chunk.
  if (pending_.empty() && chunk_pos_ + kRecordBytes <= chunk_.size()) {
    const gen::Edge edge = decode(chunk_.data() + chunk_pos_);
    chunk_pos_ += kRecordBytes;
    return edge;
  }
  // Slow path: assemble a record across chunk boundaries.
  while (pending_.size() < kRecordBytes) {
    if (chunk_pos_ >= chunk_.size()) {
      chunk_ = reader_->read_chunk();
      chunk_pos_ = 0;
      if (chunk_.empty()) {
        util::io_require(pending_.empty(),
                         "binary run ends mid-record (corrupt spill file)");
        return std::nullopt;
      }
    }
    const std::size_t want = kRecordBytes - pending_.size();
    const std::size_t take = std::min(want, chunk_.size() - chunk_pos_);
    pending_.append(chunk_.data() + chunk_pos_, take);
    chunk_pos_ += take;
  }
  const gen::Edge edge = decode(pending_.data());
  pending_.clear();
  return edge;
}

std::size_t BinaryRunReader::next_batch(gen::EdgeList& out,
                                        std::size_t max_records) {
  std::size_t count = 0;
  while (count < max_records) {
    auto edge = next();
    if (!edge) break;
    out.push_back(*edge);
    ++count;
  }
  return count;
}

}  // namespace prpb::io
