#include "fault/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <utility>

#include "io/file_stream.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace prpb::fault {

namespace {

std::string manifest_shard(const std::string& stage) { return stage + ".json"; }

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

std::uint64_t parse_hex64(const std::string& text, const char* what) {
  util::io_require(text.rfind("0x", 0) == 0 && text.size() > 2 &&
                       text.size() <= 18,
                   std::string("manifest: bad ") + what + " '" + text + "'");
  std::uint64_t value = 0;
  for (std::size_t i = 2; i < text.size(); ++i) {
    const char c = text[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      throw util::IoError(std::string("manifest: bad ") + what + " '" + text +
                          "'");
    }
    value = (value << 4) | digit;
  }
  return value;
}

/// Hashes bytes as they stream through to the inner writer and registers
/// the as-written record at close.
class DigestWriter final : public io::StageWriter {
 public:
  DigestWriter(std::unique_ptr<io::StageWriter> inner,
               std::function<void(ShardRecord)> on_close, std::string name)
      : inner_(std::move(inner)), on_close_(std::move(on_close)),
        name_(std::move(name)) {}
  ~DigestWriter() override {
    try {
      close();
    } catch (...) {
      // destructor must not throw; close() errors propagate on direct calls
    }
  }

  std::string& buffer() override { return staged_; }
  void maybe_flush() override {
    if (staged_.size() >= io::kDefaultBufferBytes) forward();
  }
  void close() override {
    if (closed_) return;
    closed_ = true;
    forward();
    // Register the record before the inner close: a torn/failed commit
    // below this layer must not lose the record of what was intended, or
    // read-back verification could not describe the divergence.
    ShardRecord rec{name_, bytes_, hash_.digest()};
    on_close_(std::move(rec));
    inner_->close();
  }
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return bytes_ + staged_.size();
  }

 private:
  void forward() {
    if (staged_.empty()) return;
    hash_.update(staged_);
    bytes_ += staged_.size();
    inner_->write(staged_);
    staged_.clear();
  }

  std::unique_ptr<io::StageWriter> inner_;
  std::function<void(ShardRecord)> on_close_;
  std::string name_;
  std::string staged_;
  ByteHash hash_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

}  // namespace

// ---- StageManifest ---------------------------------------------------------

std::string StageManifest::json() const {
  util::JsonWriter out;
  out.begin_object();
  out.field("version", static_cast<std::int64_t>(version));
  out.field("stage", stage);
  out.field("codec", codec);
  out.field("config_fingerprint", hex64(config_fingerprint));
  out.begin_array("shards");
  for (const auto& shard : shards) {
    out.begin_object();
    out.field("name", shard.name);
    out.field("bytes", shard.bytes);
    out.field("digest", hex64(shard.digest));
    out.end_object();
  }
  out.end_array();
  out.end_object();
  return out.str();
}

StageManifest StageManifest::parse(std::string_view text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  util::io_require(doc.is_object(), "manifest: not a JSON object");
  StageManifest manifest;
  manifest.version = static_cast<int>(doc.at("version").number());
  util::io_require(manifest.version == 1, "manifest: unsupported version");
  manifest.stage = doc.at("stage").string();
  manifest.codec = doc.at("codec").string();
  manifest.config_fingerprint =
      parse_hex64(doc.at("config_fingerprint").string(), "config fingerprint");
  for (const auto& entry : doc.at("shards").array()) {
    ShardRecord shard;
    shard.name = entry.at("name").string();
    shard.bytes = static_cast<std::uint64_t>(entry.at("bytes").number());
    shard.digest = parse_hex64(entry.at("digest").string(), "shard digest");
    manifest.shards.push_back(std::move(shard));
  }
  return manifest;
}

// ---- ShardDigestStore ------------------------------------------------------

std::unique_ptr<io::StageWriter> ShardDigestStore::open_write(
    const std::string& stage, const std::string& shard) {
  auto inner = inner_.open_write(stage, shard);
  return std::make_unique<DigestWriter>(
      std::move(inner),
      [this, stage](ShardRecord rec) { record(stage, std::move(rec)); },
      shard);
}

void ShardDigestStore::clear_stage(const std::string& stage) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.erase(stage);
  }
  inner_.clear_stage(stage);
}

void ShardDigestStore::remove(const std::string& stage) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.erase(stage);
  }
  inner_.remove(stage);
}

void ShardDigestStore::remove_shard(const std::string& stage,
                                    const std::string& shard) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(stage);
    if (it != records_.end()) it->second.erase(shard);
  }
  inner_.remove_shard(stage, shard);
}

std::vector<ShardRecord> ShardDigestStore::written(
    const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ShardRecord> out;
  const auto it = records_.find(stage);
  if (it == records_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [name, rec] : it->second) out.push_back(rec);
  return out;  // std::map iteration is already name-sorted
}

void ShardDigestStore::record(const std::string& stage, ShardRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_[stage][rec.name] = std::move(rec);
}

// ---- CheckpointManager -----------------------------------------------------

ShardRecord CheckpointManager::read_back(const std::string& stage,
                                         const std::string& shard) const {
  // Digest the chunks a decoder would be fed, so verification sees exactly
  // the bytes a reader would; nothing is copied.
  const auto reader = store_.open_read(stage, shard);
  ShardRecord rec;
  rec.name = shard;
  ByteHash hash;
  for (std::string_view chunk = reader->read_chunk(); !chunk.empty();
       chunk = reader->read_chunk()) {
    hash.update(chunk);
    rec.bytes += chunk.size();
  }
  rec.digest = hash.digest();
  return rec;
}

void CheckpointManager::commit(const std::string& stage) {
  const std::vector<ShardRecord> expected = digests_.written(stage);
  if (expected.empty()) {
    throw util::CorruptionError(
        io::shard_context(store_.kind(), stage) +
        ": checkpoint commit without any as-written shard records");
  }
  std::vector<std::string> stored =
      store_.exists(stage) ? store_.list(stage) : std::vector<std::string>{};
  std::vector<std::string> wanted;
  wanted.reserve(expected.size());
  for (const auto& rec : expected) wanted.push_back(rec.name);
  if (stored != wanted) {
    throw util::CorruptionError(
        io::shard_context(store_.kind(), stage) + ": stored shard set (" +
        std::to_string(stored.size()) + ") diverges from written set (" +
        std::to_string(wanted.size()) + ")");
  }
  for (const auto& rec : expected) {
    const ShardRecord actual = read_back(stage, rec.name);
    if (actual.bytes != rec.bytes || actual.digest != rec.digest) {
      throw util::CorruptionError(
          io::shard_context(store_.kind(), stage, rec.name) +
          ": stored bytes diverge from what was written (stored " +
          std::to_string(actual.bytes) + " B digest " + hex64(actual.digest) +
          ", written " + std::to_string(rec.bytes) + " B digest " +
          hex64(rec.digest) + ") — torn, truncated or corrupt write");
    }
  }
  StageManifest manifest;
  manifest.stage = stage;
  manifest.codec = codec_name_;
  manifest.config_fingerprint = config_fingerprint_;
  manifest.shards = expected;
  auto writer = store_.open_write(kCheckpointStage, manifest_shard(stage));
  writer->write(manifest.json());
  writer->write("\n");
  writer->close();
}

ManifestCheck CheckpointManager::validate(const std::string& stage) const {
  std::string text;
  try {
    const auto view =
        store_.open_read(kCheckpointStage, manifest_shard(stage))->view();
    text.assign(view->chars());
  } catch (const util::IoError&) {
    return {ManifestStatus::kMissing, "no manifest for stage '" + stage + "'"};
  }

  StageManifest manifest;
  try {
    manifest = StageManifest::parse(text);
  } catch (const util::Error& e) {
    return {ManifestStatus::kMismatch,
            "manifest for stage '" + stage + "' unreadable: " + e.what()};
  }
  if (manifest.stage != stage) {
    return {ManifestStatus::kMismatch, "manifest names stage '" +
                                           manifest.stage + "', expected '" +
                                           stage + "'"};
  }
  if (manifest.codec != codec_name_) {
    return {ManifestStatus::kMismatch,
            "stage '" + stage + "' was written with codec '" + manifest.codec +
                "', this run uses '" + codec_name_ + "'"};
  }
  if (manifest.config_fingerprint != config_fingerprint_) {
    return {ManifestStatus::kMismatch,
            "stage '" + stage +
                "' belongs to a different pipeline configuration"};
  }
  if (!store_.exists(stage)) {
    return {ManifestStatus::kMismatch, "stage '" + stage + "' is absent"};
  }
  std::vector<std::string> wanted;
  wanted.reserve(manifest.shards.size());
  for (const auto& rec : manifest.shards) wanted.push_back(rec.name);
  if (store_.list(stage) != wanted) {
    return {ManifestStatus::kMismatch,
            "stage '" + stage + "' shard set diverges from its manifest"};
  }
  for (const auto& rec : manifest.shards) {
    ShardRecord actual;
    try {
      actual = read_back(stage, rec.name);
    } catch (const util::Error& e) {
      return {ManifestStatus::kMismatch,
              io::shard_context(store_.kind(), stage, rec.name) +
                  ": unreadable during validation: " + e.what()};
    }
    if (actual.bytes != rec.bytes || actual.digest != rec.digest) {
      return {ManifestStatus::kMismatch,
              io::shard_context(store_.kind(), stage, rec.name) +
                  ": stored bytes do not match the stage manifest"};
    }
  }
  return {ManifestStatus::kValid, ""};
}

void CheckpointManager::invalidate(const std::string& stage) {
  if (store_.exists(kCheckpointStage)) {
    store_.remove_shard(kCheckpointStage, manifest_shard(stage));
  }
}

}  // namespace prpb::fault
