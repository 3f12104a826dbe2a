#include "io/edge_batch.hpp"

#include <algorithm>

#include "io/edge_files.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace prpb::io {

namespace {

std::string shard_trace_args(const std::string& stage,
                             const std::string& shard) {
  util::JsonWriter json;
  json.begin_object();
  json.field("stage", stage);
  json.field("shard", shard);
  json.end_object();
  return json.str();
}

}  // namespace

// ---- EdgeBatchReader --------------------------------------------------------

EdgeBatchReader::EdgeBatchReader(StageStore& store, std::string stage,
                                 const StageCodec& codec, obs::Hooks hooks)
    : EdgeBatchReader(store, stage, store.list(stage), codec, hooks) {}

EdgeBatchReader::EdgeBatchReader(StageStore& store, std::string stage,
                                 std::vector<std::string> shards,
                                 const StageCodec& codec, obs::Hooks hooks)
    : store_(store),
      stage_(std::move(stage)),
      codec_(codec),
      shards_(std::move(shards)),
      decode_span_(hooks.trace, "codec/decode") {
  if (hooks.metrics != nullptr) {
    batch_edges_ = &hooks.metrics->histogram("io/batch_edges",
                                             obs::batch_size_buckets());
  }
}

bool EdgeBatchReader::step(gen::EdgeList& out, std::size_t max_bytes) {
  if (!reader_) {
    if (shard_index_ >= shards_.size()) return false;
    reader_ = store_.open_read(stage_, shards_[shard_index_]);
    decoder_ = codec_.make_decoder();
  }
  if (chunk_.empty()) chunk_ = reader_->read_chunk();
  decode_span_.begin();
  if (chunk_.empty()) {
    const std::string& shard = shards_[shard_index_];
    decoder_->finish(out, stage_ + "/" + shard);
    decode_span_.end();
    if (decode_span_.active()) {
      decode_span_.flush(shard_trace_args(stage_, shard));
    }
    reader_.reset();
    decoder_.reset();
    ++shard_index_;
  } else {
    const std::string_view slice = chunk_.substr(0, max_bytes);
    chunk_.remove_prefix(slice.size());
    decoder_->feed(slice, out);
    decode_span_.end();
  }
  return true;
}

bool EdgeBatchReader::next(gen::EdgeList& batch) {
  batch.clear();
  while (batch.empty()) {
    if (!step(batch, kDecodeSliceBytes)) return false;
  }
  edges_read_ += batch.size();
  if (batch_edges_ != nullptr) {
    batch_edges_->observe(static_cast<double>(batch.size()));
  }
  return true;
}

void EdgeBatchReader::read_all(gen::EdgeList& edges) {
  const std::size_t before = edges.size();
  while (step(edges, std::string_view::npos)) {
  }
  edges_read_ += edges.size() - before;
}

// ---- ShardWriter ------------------------------------------------------------

ShardWriter::ShardWriter(StageStore& store, const std::string& stage,
                         const std::string& shard, const StageCodec& codec,
                         obs::Hooks hooks)
    : writer_(store.open_write(stage, shard)),
      encoder_(codec.make_encoder()),
      encode_span_(hooks.trace, "codec/encode") {
  if (encode_span_.active()) trace_args_ = shard_trace_args(stage, shard);
  encoder_->begin(*writer_);
}

void ShardWriter::append(const gen::Edge& edge) {
  pending_.push_back(edge);
  if (pending_.size() >= kDefaultBatchEdges) flush_pending();
}

void ShardWriter::append(const gen::Edge* edges, std::size_t count) {
  flush_pending();
  encode_span_.begin();
  encoder_->encode(*writer_, edges, count);
  encode_span_.end();
  edges_ += count;
}

void ShardWriter::flush_pending() {
  if (pending_.empty()) return;
  encode_span_.begin();
  encoder_->encode(*writer_, pending_.data(), pending_.size());
  encode_span_.end();
  edges_ += pending_.size();
  pending_.clear();
}

void ShardWriter::close() {
  util::require(writer_ != nullptr, "ShardWriter: close() called twice");
  flush_pending();
  encode_span_.begin();
  encoder_->finish(*writer_);
  encode_span_.end();
  encode_span_.flush(std::move(trace_args_));
  writer_->close();
  bytes_ = writer_->bytes_written();
  writer_.reset();
  encoder_.reset();
}

// ---- EdgeBatchWriter --------------------------------------------------------

EdgeBatchWriter::EdgeBatchWriter(StageStore& store, std::string stage,
                                 const StageCodec& codec, std::size_t shards,
                                 std::uint64_t total_edges, obs::Hooks hooks)
    : store_(store),
      stage_(std::move(stage)),
      codec_(codec),
      bounds_(shard_boundaries(total_edges, shards)),
      hooks_(hooks) {
  store_.clear_stage(stage_);
  writer_.emplace(store_, stage_, shard_name(shard_, codec_), codec_, hooks_);
}

void EdgeBatchWriter::next_shard() {
  writer_->close();
  bytes_ += writer_->bytes_written();
  ++shard_;
  writer_.emplace(store_, stage_, shard_name(shard_, codec_), codec_, hooks_);
}

std::uint64_t EdgeBatchWriter::room() {
  // Empty shards between here and the owner are created and closed on
  // the way past.
  while (shard_ + 2 < bounds_.size() && written_ >= bounds_[shard_ + 1]) {
    next_shard();
  }
  util::ensure(written_ < bounds_[shard_ + 1],
               "EdgeBatchWriter: more edges appended than declared");
  return bounds_[shard_ + 1] - written_;
}

void EdgeBatchWriter::append(const gen::Edge& edge) {
  room();
  writer_->append(edge);
  ++written_;
}

void EdgeBatchWriter::append(const gen::Edge* edges, std::size_t count) {
  while (count > 0) {
    const auto take =
        static_cast<std::size_t>(std::min<std::uint64_t>(count, room()));
    writer_->append(edges, take);
    edges += take;
    count -= take;
    written_ += take;
  }
}

void EdgeBatchWriter::close() {
  util::require(writer_.has_value(), "EdgeBatchWriter: close() called twice");
  util::ensure(written_ == bounds_.back(),
               "EdgeBatchWriter: fewer edges appended than declared");
  // Create any remaining (empty) trailing shards so the stage always has
  // exactly the declared shard count.
  while (shard_ + 2 < bounds_.size()) next_shard();
  writer_->close();
  bytes_ += writer_->bytes_written();
  writer_.reset();
}

std::uint64_t write_edge_shard(StageStore& store, const std::string& stage,
                               const std::string& shard,
                               const gen::EdgeList& edges,
                               const StageCodec& codec) {
  ShardWriter writer(store, stage, shard, codec);
  writer.append(edges);
  writer.close();
  return writer.bytes_written();
}

}  // namespace prpb::io
