#include "io/stage_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"

namespace prpb::io {

StageFormat parse_stage_format(const std::string& name) {
  if (name == "tsv") return StageFormat::kTsv;
  if (name == "binary") return StageFormat::kBinary;
  throw util::ConfigError("unknown stage format '" + name +
                          "' (valid values: tsv, binary)");
}

std::string stage_format_name(StageFormat format) {
  return format == StageFormat::kTsv ? "tsv" : "binary";
}

std::string shard_name(std::size_t index, const StageCodec& codec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "edges_%05zu", index);
  return buf + codec.shard_extension();
}

// ---- TSV --------------------------------------------------------------------

namespace {

class TsvEncoder final : public StageEncoder {
 public:
  explicit TsvEncoder(Codec flavor) : flavor_(flavor) {}

  void begin(StageWriter&) override {}

  void encode(StageWriter& writer, const gen::Edge* edges,
              std::size_t count) override {
    // Slices of at most kMaxBlockEdges records that fit the staging
    // buffer's spare capacity even at the widest ids, so the buffer never
    // reallocates; only a buffer too small for one record grows, once.
    for (std::size_t lo = 0; lo < count;) {
      std::string& buf = writer.buffer();
      const std::size_t fit = (buf.capacity() - buf.size()) / kMaxRecordBytes;
      const std::size_t n = std::min(
          {count - lo, binfmt::kMaxBlockEdges, fit > 0 ? fit : count - lo});
      append_edges(buf, edges + lo, n, flavor_);
      writer.maybe_flush();
      lo += n;
    }
  }

  void finish(StageWriter&) override {}

 private:
  /// Two 20-digit ids, a tab and a newline, plus append_edges_fast's
  /// 8 bytes of slack.
  static constexpr std::size_t kMaxRecordBytes = 20 + 20 + 2 + 8;

  Codec flavor_;
};

class TsvDecoder final : public StageDecoder {
 public:
  explicit TsvDecoder(Codec flavor) : flavor_(flavor) {}

  void feed(std::string_view chunk, gen::EdgeList& out) override {
    if (!carry_.empty()) {
      // Complete only the carried partial line with bytes up to the
      // chunk's first newline; the rest of the chunk parses in place.
      // (The carry never contains a newline, so the joined line is whole.)
      const std::size_t eol = chunk.find('\n');
      if (eol == std::string_view::npos) {
        carry_.append(chunk);
        return;
      }
      carry_.append(chunk.substr(0, eol));
      carry_.push_back('\n');
      parse_edges(carry_, out, flavor_);
      carry_.clear();
      chunk.remove_prefix(eol + 1);
    }
    const std::size_t consumed = parse_edges(chunk, out, flavor_);
    carry_.assign(chunk.substr(consumed));
  }

  void finish(gen::EdgeList& out, const std::string&) override {
    // Tolerate a final record without a trailing newline (and, via the
    // line parser's CR stripping, CRLF endings). Malformed leftovers
    // still throw from parse_edge_line.
    if (carry_.empty()) return;
    out.push_back(parse_edge_line(carry_, flavor_));
    carry_.clear();
  }

 private:
  Codec flavor_;
  std::string carry_;
};

class TsvStageCodec final : public StageCodec {
 public:
  explicit TsvStageCodec(Codec flavor) : flavor_(flavor) {}

  [[nodiscard]] std::string name() const override { return "tsv"; }
  [[nodiscard]] std::string shard_extension() const override { return ".tsv"; }
  [[nodiscard]] std::unique_ptr<StageEncoder> make_encoder() const override {
    return std::make_unique<TsvEncoder>(flavor_);
  }
  [[nodiscard]] std::unique_ptr<StageDecoder> make_decoder() const override {
    return std::make_unique<TsvDecoder>(flavor_);
  }

 private:
  Codec flavor_;
};

// ---- binary -----------------------------------------------------------------

std::size_t width_for(std::uint64_t max_id) {
  if (max_id < (std::uint64_t{1} << 8)) return 1;
  if (max_id < (std::uint64_t{1} << 16)) return 2;
  if (max_id < (std::uint64_t{1} << 32)) return 4;
  return 8;
}

std::uint64_t load_le(const char* in, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = width; i-- > 0;) {
    value = (value << 8) | static_cast<unsigned char>(in[i]);
  }
  return value;
}

/// Fixed-width little-endian load via memcpy (unaligned-safe, UBSan-clean).
/// Big-endian hosts fall back to the portable byte loop.
template <typename T>
std::uint64_t load_le_int(const char* in) {
  if constexpr (std::endian::native != std::endian::little) {
    return load_le(in, sizeof(T));
  } else {
    T value;
    std::memcpy(&value, in, sizeof(T));
    return value;
  }
}

/// Fixed-width little-endian store, the mirror of load_le_int.
template <typename T>
void store_le_int(char* out, std::uint64_t value) {
  if constexpr (std::endian::native != std::endian::little) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<char>(value & 0xffu);
      value >>= 8;
    }
  } else {
    const auto narrow = static_cast<T>(value);
    std::memcpy(out, &narrow, sizeof(T));
  }
}

/// Writes one id column of `count` records at a fixed width; returns the
/// end of the column. The mirror of decode_column_pair.
template <typename T, std::uint64_t gen::Edge::*Field>
char* encode_column(const gen::Edge* edges, std::size_t count, char* out) {
  for (std::size_t i = 0; i < count; ++i) {
    store_le_int<T>(out + i * sizeof(T), edges[i].*Field);
  }
  return out + count * sizeof(T);
}

template <std::uint64_t gen::Edge::*Field>
char* encode_column(const gen::Edge* edges, std::size_t count,
                    std::size_t width, char* out) {
  switch (width) {
    case 1: return encode_column<std::uint8_t, Field>(edges, count, out);
    case 2: return encode_column<std::uint16_t, Field>(edges, count, out);
    case 4: return encode_column<std::uint32_t, Field>(edges, count, out);
    default: return encode_column<std::uint64_t, Field>(edges, count, out);
  }
}

/// Appends `count` (u, v) pairs from two columnar id arrays. The width
/// switch hoists out of the element loop so each combination runs a tight
/// fixed-width copy loop.
template <typename U, typename V>
void decode_column_pair(const char* su, const char* sv, std::uint64_t count,
                        gen::EdgeList& out) {
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(gen::Edge{load_le_int<U>(su + i * sizeof(U)),
                            load_le_int<V>(sv + i * sizeof(V))});
  }
}

template <typename U>
void decode_block_u(const char* su, const char* sv, std::uint64_t count,
                    std::size_t wv, gen::EdgeList& out) {
  switch (wv) {
    case 1: decode_column_pair<U, std::uint8_t>(su, sv, count, out); break;
    case 2: decode_column_pair<U, std::uint16_t>(su, sv, count, out); break;
    case 4: decode_column_pair<U, std::uint32_t>(su, sv, count, out); break;
    default: decode_column_pair<U, std::uint64_t>(su, sv, count, out); break;
  }
}

void decode_block(const char* su, const char* sv, std::uint64_t count,
                  std::size_t wu, std::size_t wv, gen::EdgeList& out) {
  switch (wu) {
    case 1: decode_block_u<std::uint8_t>(su, sv, count, wv, out); break;
    case 2: decode_block_u<std::uint16_t>(su, sv, count, wv, out); break;
    case 4: decode_block_u<std::uint32_t>(su, sv, count, wv, out); break;
    default: decode_block_u<std::uint64_t>(su, sv, count, wv, out); break;
  }
}

/// Backstop against decoding garbage as a huge count: a block never holds
/// more edges than fit in a terabyte of the widest records.
constexpr std::uint64_t kMaxBlockRecords = std::uint64_t{1} << 36;

class BinaryEncoder final : public StageEncoder {
 public:
  void begin(StageWriter& writer) override {
    std::string& buf = writer.buffer();
    buf.append(binfmt::kMagic, sizeof(binfmt::kMagic));
    buf.push_back(static_cast<char>(binfmt::kVersion));
    buf.append(3, '\0');
    writer.maybe_flush();
  }

  void encode(StageWriter& writer, const gen::Edge* edges,
              std::size_t count) override {
    // Bounded blocks: a streaming decoder stashes at most one block.
    for (std::size_t lo = 0; lo < count; lo += binfmt::kMaxBlockEdges) {
      encode_block(writer.buffer(), edges + lo,
                   std::min(count - lo, binfmt::kMaxBlockEdges));
      writer.maybe_flush();
    }
  }

  void finish(StageWriter&) override {}

 private:
  static void encode_block(std::string& buf, const gen::Edge* edges,
                           std::size_t count) {
    std::uint64_t max_u = 0;
    std::uint64_t max_v = 0;
    for (std::size_t i = 0; i < count; ++i) {
      max_u = std::max(max_u, edges[i].u);
      max_v = std::max(max_v, edges[i].v);
    }
    const std::size_t wu = width_for(max_u);
    const std::size_t wv = width_for(max_v);
    const std::size_t at = buf.size();
    buf.resize(at + binfmt::kBlockHeaderBytes + count * (wu + wv));
    char* out = buf.data() + at;
    store_le_int<std::uint64_t>(out, count);
    out[8] = static_cast<char>(wu);
    out[9] = static_cast<char>(wv);
    out += binfmt::kBlockHeaderBytes;
    out = encode_column<&gen::Edge::u>(edges, count, wu, out);
    encode_column<&gen::Edge::v>(edges, count, wv, out);
  }
};

class BinaryDecoder final : public StageDecoder {
 public:
  void feed(std::string_view chunk, gen::EdgeList& out) override {
    // Top up the stash (bytes of a header/block split across chunk
    // boundaries) until what it holds completes, then parse the rest of
    // the chunk in place. Only boundary-spanning records are ever copied.
    std::size_t off = 0;
    while (!stash_.empty() && off < chunk.size()) {
      const std::size_t take =
          std::min(stash_needed(), chunk.size() - off);
      stash_.append(chunk.substr(off, take));
      off += take;
      const std::size_t consumed = parse_prefix(stash_, out);
      stash_.erase(0, consumed);
    }
    if (off < chunk.size()) {  // stash is empty here
      const std::string_view rest = chunk.substr(off);
      const std::size_t consumed = parse_prefix(rest, out);
      stash_.assign(rest.substr(consumed));
    }
  }

  void finish(gen::EdgeList& out, const std::string& label) override {
    (void)out;
    if (!header_seen_) {
      // A fully empty shard (stage padding) is valid; header fragments
      // are not.
      util::io_require(stash_.empty(),
                       "binary edge shard truncated before header: " + label);
      return;
    }
    util::io_require(stash_.empty(),
                     "binary edge shard ends mid-block: " + label);
  }

 private:
  /// Parses as many complete records as `data` holds, appending decoded
  /// edges; returns bytes consumed (always a header/block boundary).
  std::size_t parse_prefix(std::string_view data, gen::EdgeList& out) {
    std::size_t pos = 0;
    if (!header_seen_) {
      if (data.size() < binfmt::kHeaderBytes) return 0;
      util::io_require(
          std::memcmp(data.data(), binfmt::kMagic, sizeof(binfmt::kMagic)) ==
              0,
          "binary edge shard has bad magic (is this a TSV stage?)");
      util::io_require(
          static_cast<std::uint8_t>(data[4]) == binfmt::kVersion,
          "binary edge shard has an unsupported version");
      pos = binfmt::kHeaderBytes;
      header_seen_ = true;
    }
    for (;;) {
      if (data.size() - pos < binfmt::kBlockHeaderBytes) break;
      const BlockHeader header = read_block_header(data.substr(pos));
      if (data.size() - pos - binfmt::kBlockHeaderBytes < header.payload) {
        break;
      }
      const char* su = data.data() + pos + binfmt::kBlockHeaderBytes;
      const char* sv = su + header.count * header.wu;
      // Grow at least geometrically: an exact per-block reserve would copy
      // the whole list once per block, quadratic over a many-block shard.
      if (out.capacity() - out.size() < header.count) {
        out.reserve(std::max<std::size_t>(out.size() + header.count,
                                          2 * out.capacity()));
      }
      decode_block(su, sv, header.count, header.wu, header.wv, out);
      pos += binfmt::kBlockHeaderBytes + header.payload;
    }
    return pos;
  }

  struct BlockHeader {
    std::uint64_t count;
    std::size_t wu;
    std::size_t wv;
    std::uint64_t payload;
  };

  /// Reads and validates a block header; `data` must hold at least
  /// kBlockHeaderBytes.
  static BlockHeader read_block_header(std::string_view data) {
    BlockHeader header;
    header.count = load_le(data.data(), 8);
    header.wu =
        static_cast<std::size_t>(static_cast<unsigned char>(data[8]));
    header.wv =
        static_cast<std::size_t>(static_cast<unsigned char>(data[9]));
    util::io_require(
        (header.wu == 1 || header.wu == 2 || header.wu == 4 ||
         header.wu == 8) &&
            (header.wv == 1 || header.wv == 2 || header.wv == 4 ||
             header.wv == 8) &&
            header.count <= kMaxBlockRecords,
        "binary edge shard has a corrupt block header");
    header.payload = header.count * (header.wu + header.wv);
    return header;
  }

  /// Bytes still required before the stashed partial record completes:
  /// the rest of the file header, the rest of a block header, or the rest
  /// of a block whose header the stash already holds.
  [[nodiscard]] std::size_t stash_needed() const {
    if (!header_seen_) return binfmt::kHeaderBytes - stash_.size();
    if (stash_.size() < binfmt::kBlockHeaderBytes) {
      return binfmt::kBlockHeaderBytes - stash_.size();
    }
    const BlockHeader header = read_block_header(stash_);
    return binfmt::kBlockHeaderBytes + header.payload - stash_.size();
  }

  std::string stash_;  // bytes of one boundary-spanning record, never more
  bool header_seen_ = false;
};

class BinaryStageCodec final : public StageCodec {
 public:
  [[nodiscard]] std::string name() const override { return "binary"; }
  [[nodiscard]] std::string shard_extension() const override { return ".bin"; }
  [[nodiscard]] std::unique_ptr<StageEncoder> make_encoder() const override {
    return std::make_unique<BinaryEncoder>();
  }
  [[nodiscard]] std::unique_ptr<StageDecoder> make_decoder() const override {
    return std::make_unique<BinaryDecoder>();
  }
};

}  // namespace

const StageCodec& tsv_codec(Codec flavor) {
  static const TsvStageCodec fast{Codec::kFast};
  static const TsvStageCodec generic{Codec::kGeneric};
  return flavor == Codec::kFast ? fast : generic;
}

const StageCodec& binary_codec() {
  static const BinaryStageCodec codec;
  return codec;
}

const StageCodec& stage_codec(StageFormat format, Codec flavor) {
  return format == StageFormat::kTsv ? tsv_codec(flavor) : binary_codec();
}

}  // namespace prpb::io
