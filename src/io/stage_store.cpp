#include "io/stage_store.hpp"

#include <algorithm>
#include <cstdio>

#include "io/file_stream.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace prpb::io {

namespace fs = std::filesystem;

std::string shard_name(std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "edges_%05zu.tsv", index);
  return name;
}

std::string shard_context(const std::string& kind, const std::string& stage,
                          const std::string& shard) {
  std::string out = "stage '" + stage + "'";
  if (!shard.empty()) {
    out += " shard '" + shard + "'";
    // "edges_00003.tsv" → "(index 3)"; shard names without a digit run
    // (manifests, spill runs with other schemes) just omit the clause.
    const std::size_t first = shard.find_first_of("0123456789");
    if (first != std::string::npos) {
      std::size_t last = first;
      while (last < shard.size() && shard[last] >= '0' && shard[last] <= '9') {
        ++last;
      }
      std::size_t lead = first;
      while (lead + 1 < last && shard[lead] == '0') ++lead;
      out += " (index " + shard.substr(lead, last - lead) + ")";
    }
  }
  out += " [store " + kind + "]";
  return out;
}

// ---- DirStageStore ---------------------------------------------------------

std::unique_ptr<StageReader> DirStageStore::open_read(
    const std::string& stage, const std::string& shard) {
  const fs::path path = resolve(stage) / shard;
  if (!fs::is_regular_file(path)) {
    throw util::IoError(shard_context(kind(), stage, shard) +
                        ": no such shard (" + path.string() + ")");
  }
  return std::make_unique<FileReader>(path);
}

std::unique_ptr<StageWriter> DirStageStore::open_write(
    const std::string& stage, const std::string& shard) {
  util::ensure_dir(resolve(stage));
  return std::make_unique<FileWriter>(resolve(stage) / shard);
}

std::vector<std::string> DirStageStore::list(const std::string& stage) const {
  std::vector<std::string> names;
  for (const auto& path : util::list_files_sorted(resolve(stage))) {
    names.push_back(path.filename().string());
  }
  return names;
}

bool DirStageStore::exists(const std::string& stage) const {
  return fs::is_directory(resolve(stage));
}

void DirStageStore::clear_stage(const std::string& stage) {
  util::ensure_dir(resolve(stage));
  util::clear_dir(resolve(stage));
}

void DirStageStore::remove(const std::string& stage) {
  fs::remove_all(resolve(stage));
}

void DirStageStore::remove_shard(const std::string& stage,
                                 const std::string& shard) {
  fs::remove(resolve(stage) / shard);
}

std::uint64_t DirStageStore::stage_bytes(const std::string& stage) const {
  return exists(stage) ? util::dir_bytes(resolve(stage)) : 0;
}

bool DirStageStore::empty(const std::string& stage) const {
  if (!exists(stage)) return true;
  // Early-exit directory walk: one non-empty shard settles it, no need to
  // stat (let alone sum) the whole stage the way stage_bytes() does.
  for (const auto& entry : fs::directory_iterator(resolve(stage))) {
    if (entry.is_regular_file() && entry.file_size() > 0) return false;
  }
  return true;
}

// ---- MemStageStore ---------------------------------------------------------

namespace {

class MemReader final : public StageReader {
 public:
  explicit MemReader(std::shared_ptr<const std::string> blob)
      : blob_(std::move(blob)) {}

  std::string_view read_chunk() override {
    // Serve bounded chunks to exercise the same carry/boundary logic the
    // file path exercises, instead of one giant view.
    constexpr std::size_t kChunk = kDefaultBufferBytes;
    if (pos_ >= blob_->size()) return {};
    const std::size_t n = std::min(kChunk, blob_->size() - pos_);
    const std::string_view view(blob_->data() + pos_, n);
    pos_ += n;
    return view;
  }

  [[nodiscard]] std::uint64_t bytes_read() const override { return pos_; }

 private:
  std::shared_ptr<const std::string> blob_;  // keeps data alive if cleared
  std::size_t pos_ = 0;
};

class MemWriter final : public StageWriter {
 public:
  explicit MemWriter(std::shared_ptr<std::string> blob)
      : blob_(std::move(blob)) {
    buffer_.reserve(kDefaultBufferBytes + 4096);
  }
  ~MemWriter() override { close(); }

  std::string& buffer() override { return buffer_; }
  void maybe_flush() override {
    if (buffer_.size() >= kDefaultBufferBytes) flush();
  }
  void close() override {
    if (closed_) return;
    flush();
    closed_ = true;
  }
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return blob_->size() + buffer_.size();
  }

 private:
  void flush() {
    blob_->append(buffer_);
    buffer_.clear();
  }

  std::shared_ptr<std::string> blob_;
  std::string buffer_;
  bool closed_ = false;
};

}  // namespace

std::unique_ptr<StageReader> MemStageStore::open_read(
    const std::string& stage, const std::string& shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto stage_it = stages_.find(stage);
  util::io_require(stage_it != stages_.end(),
                   shard_context(kind(), stage, shard) + ": no such stage");
  const auto shard_it = stage_it->second.find(shard);
  util::io_require(shard_it != stage_it->second.end(),
                   shard_context(kind(), stage, shard) + ": no such shard");
  return std::make_unique<MemReader>(shard_it->second);
}

std::unique_ptr<StageWriter> MemStageStore::open_write(
    const std::string& stage, const std::string& shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto blob = std::make_shared<std::string>();
  stages_[stage][shard] = blob;  // create-or-truncate
  return std::make_unique<MemWriter>(std::move(blob));
}

std::vector<std::string> MemStageStore::list(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stage);
  util::io_require(it != stages_.end(),
                   shard_context(kind(), stage) + ": no such stage");
  std::vector<std::string> names;
  names.reserve(it->second.size());
  for (const auto& [name, blob] : it->second) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

bool MemStageStore::exists(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_.contains(stage);
}

void MemStageStore::clear_stage(const std::string& stage) {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_[stage].clear();
}

void MemStageStore::remove(const std::string& stage) {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_.erase(stage);
}

void MemStageStore::remove_shard(const std::string& stage,
                                 const std::string& shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stage);
  if (it != stages_.end()) it->second.erase(shard);
}

std::uint64_t MemStageStore::stage_bytes(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stage);
  if (it == stages_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [name, blob] : it->second) total += blob->size();
  return total;
}

bool MemStageStore::empty(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stages_.find(stage);
  if (it == stages_.end()) return true;
  for (const auto& [name, blob] : it->second) {
    if (!blob->empty()) return false;
  }
  return true;
}

// ---- CountingStageStore ----------------------------------------------------

namespace {

/// One shard's span, live only when tracing was on at open: started before
/// the inner open, recorded by the reader/writer wrapper's destructor with
/// the bytes that wrapper counted.
class ShardSpan {
 public:
  ShardSpan(const obs::Hooks& hooks, obs::Histogram* latency_ms,
            const char* name, const std::string& stage,
            const std::string& shard)
      : trace_(hooks.tracing() ? hooks.trace : nullptr),
        latency_ms_(latency_ms),
        name_(name) {
    if (trace_ == nullptr) return;
    start_ = trace_->now_us();
    stage_ = stage;
    shard_ = shard;
  }

  void finish(std::uint64_t bytes) {
    if (trace_ == nullptr) return;
    const std::uint64_t elapsed_us = trace_->now_us() - start_;
    util::JsonWriter args;
    args.begin_object();
    args.field("stage", stage_);
    args.field("shard", shard_);
    args.field("bytes", bytes);
    args.end_object();
    trace_->record_complete(name_, start_, elapsed_us, args.str());
    if (latency_ms_ != nullptr) {
      latency_ms_->observe(static_cast<double>(elapsed_us) / 1e3);
    }
  }

 private:
  obs::TraceRecorder* trace_;
  obs::Histogram* latency_ms_;
  const char* name_;
  std::uint64_t start_ = 0;
  std::string stage_;
  std::string shard_;
};

class CountingReader final : public StageReader {
 public:
  CountingReader(ShardSpan span, std::unique_ptr<StageReader> inner,
                 std::atomic<std::uint64_t>& total)
      : span_(std::move(span)), inner_(std::move(inner)), total_(total) {}
  ~CountingReader() override {
    inner_.reset();  // the span covers the inner reader's close
    span_.finish(bytes_);
  }

  std::string_view read_chunk() override {
    const auto chunk = inner_->read_chunk();
    count(chunk.size());
    return chunk;
  }

  [[nodiscard]] std::uint64_t bytes_read() const override {
    return inner_->bytes_read();
  }

 private:
  void count(std::uint64_t bytes) {
    bytes_ += bytes;
    total_.fetch_add(bytes, std::memory_order_relaxed);
  }

  ShardSpan span_;
  std::unique_ptr<StageReader> inner_;
  std::atomic<std::uint64_t>& total_;
  std::uint64_t bytes_ = 0;
};

class CountingWriter final : public StageWriter {
 public:
  CountingWriter(ShardSpan span, std::unique_ptr<StageWriter> inner,
                 std::atomic<std::uint64_t>& total)
      : span_(std::move(span)), inner_(std::move(inner)), total_(total) {}
  ~CountingWriter() override {
    try {
      close();
    } catch (...) {
      // destructor must not throw; the underlying writer handles cleanup
    }
    inner_.reset();
    span_.finish(bytes_);
  }

  std::string& buffer() override { return inner_->buffer(); }
  void maybe_flush() override { inner_->maybe_flush(); }
  void close() override {
    inner_->close();
    if (!counted_) {
      counted_ = true;
      bytes_ = inner_->bytes_written();
      total_.fetch_add(bytes_, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return inner_->bytes_written();
  }

 private:
  ShardSpan span_;
  std::unique_ptr<StageWriter> inner_;
  std::atomic<std::uint64_t>& total_;
  std::uint64_t bytes_ = 0;
  bool counted_ = false;
};

}  // namespace

CountingStageStore::CountingStageStore(StageStore& inner, obs::Hooks hooks)
    : inner_(inner), hooks_(hooks) {
  if (hooks_.tracing() && hooks_.metrics != nullptr) {
    read_latency_ms_ = &hooks_.metrics->histogram("store/shard_read_ms",
                                                  obs::latency_buckets_ms());
    write_latency_ms_ = &hooks_.metrics->histogram(
        "store/shard_write_ms", obs::latency_buckets_ms());
  }
}

std::unique_ptr<StageReader> CountingStageStore::open_read(
    const std::string& stage, const std::string& shard) {
  ShardSpan span(hooks_, read_latency_ms_, "store/read_shard", stage, shard);
  auto inner = inner_.open_read(stage, shard);
  files_read_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<CountingReader>(std::move(span), std::move(inner),
                                          bytes_read_);
}

std::unique_ptr<StageWriter> CountingStageStore::open_write(
    const std::string& stage, const std::string& shard) {
  ShardSpan span(hooks_, write_latency_ms_, "store/write_shard", stage,
                 shard);
  auto inner = inner_.open_write(stage, shard);
  files_written_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<CountingWriter>(std::move(span), std::move(inner),
                                          bytes_written_);
}

StageIoCounters CountingStageStore::snapshot() const {
  StageIoCounters counters;
  counters.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  counters.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  counters.files_read = files_read_.load(std::memory_order_relaxed);
  counters.files_written = files_written_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace prpb::io
