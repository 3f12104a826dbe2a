// Pluggable stage codecs — the typed record seam between kernels and the
// byte-level StageReader/StageWriter streams.
//
// The paper fixes the visible stage format to TSV ("pairs of tab separated
// numeric strings", §IV.A); it does not say TSV must be the only format a
// system under test can ablate. A StageCodec turns edge records into shard
// bytes and back, so the encoding becomes a measured axis instead of a
// hard-coded assumption:
//
//   TsvCodec     — byte-identical to the historical on-disk layout, in the
//                  same fast/generic flavors as io::Codec (the generic
//                  flavor keeps the interpreted stacks' cost profile).
//   BinaryCodec  — little-endian columnar blocks with per-block width
//                  narrowing; the "what if stages were not text" ablation.
//
// Encoders/decoders are streaming and stateful: one instance per shard,
// feed() as chunks arrive, finish() at EOF (which also validates that the
// shard does not end mid-record).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "gen/edge.hpp"
#include "io/stage_stream.hpp"
#include "io/tsv.hpp"

namespace prpb::io {

/// The stage encodings a pipeline can be configured with.
enum class StageFormat { kTsv, kBinary };

/// Parses a --stage-format value. Throws ConfigError listing the valid
/// values on anything else.
StageFormat parse_stage_format(const std::string& name);

/// Canonical name for reports: "tsv" | "binary".
std::string stage_format_name(StageFormat format);

/// Streaming shard encoder. Usage: begin() once, encode() repeatedly,
/// finish() once. All methods append via the writer's staging buffer and
/// flush opportunistically.
class StageEncoder {
 public:
  virtual ~StageEncoder() = default;

  /// Writes any shard header. Call once before the first encode().
  virtual void begin(StageWriter& writer) = 0;
  /// Appends `count` records to the shard.
  virtual void encode(StageWriter& writer, const gen::Edge* edges,
                      std::size_t count) = 0;
  /// Writes any shard trailer. Call once after the last encode().
  virtual void finish(StageWriter& writer) = 0;

  void encode(StageWriter& writer, const gen::EdgeList& edges) {
    encode(writer, edges.data(), edges.size());
  }
};

/// Streaming shard decoder. feed() it chunks in order; decoded records are
/// appended to `out` as soon as they complete. finish() flushes any final
/// record and throws IoError when the shard ends mid-record; `label`
/// identifies the shard in the error message.
class StageDecoder {
 public:
  virtual ~StageDecoder() = default;

  virtual void feed(std::string_view chunk, gen::EdgeList& out) = 0;
  virtual void finish(gen::EdgeList& out, const std::string& label) = 0;

  /// feed(shard) + finish(label) on a fresh decoder. No codec overrides
  /// it; it stays virtual only because perfbench's timing decorator still
  /// forwards it.
  virtual void decode(std::string_view shard, gen::EdgeList& out,
                      const std::string& label) {
    feed(shard, out);
    finish(out, label);
  }
};

/// A stage encoding: a factory for per-shard encoders/decoders plus the
/// naming metadata the stage layout needs.
class StageCodec {
 public:
  virtual ~StageCodec() = default;

  /// Codec name for reports and shard naming: "tsv" | "binary".
  [[nodiscard]] virtual std::string name() const = 0;
  /// Shard file extension including the dot (".tsv" | ".bin").
  [[nodiscard]] virtual std::string shard_extension() const = 0;
  [[nodiscard]] virtual std::unique_ptr<StageEncoder> make_encoder() const = 0;
  [[nodiscard]] virtual std::unique_ptr<StageDecoder> make_decoder() const = 0;
};

/// The TSV codec in the requested flavor (fast digit loops vs the
/// deliberately generic iostream path). Returned references are to
/// immutable singletons; codecs are stateless and shareable.
const StageCodec& tsv_codec(Codec flavor = Codec::kFast);

/// The little-endian columnar binary codec.
const StageCodec& binary_codec();

/// Resolves a (format, flavor) pair to a codec. The flavor only matters
/// for TSV; binary has a single implementation.
const StageCodec& stage_codec(StageFormat format, Codec flavor = Codec::kFast);

/// Codec-aware shard naming: "edges_00042" + codec.shard_extension().
/// Readers stay extension-agnostic (they enumerate via StageStore::list),
/// so mixed layouts still decode as long as the codec matches the bytes.
std::string shard_name(std::size_t index, const StageCodec& codec);

// ---- binary shard format ----------------------------------------------------
//
// shard  := header block*
// header := "PRPB" version:u8 reserved[3]                    (8 bytes)
// block  := count:u64le width_start:u8 width_end:u8 reserved[6]
//           start_ids[count * width_start] end_ids[count * width_end]
//
// Records are logically u64 pairs; each block stores both columns at the
// narrowest of {1,2,4,8} bytes that holds the block's maximum id, so small
// graphs (scale 16 ids fit in 2 bytes) pay ~4 bytes/edge instead of the
// ~12 bytes/edge TSV averages. An empty shard (0 bytes, no header) is
// valid: stage layouts pad with empty shards when files > edges.
namespace binfmt {
inline constexpr char kMagic[4] = {'P', 'R', 'P', 'B'};
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8;
inline constexpr std::size_t kBlockHeaderBytes = 16;
/// Encoders split larger appends into blocks of at most this many
/// records, so a streaming decoder never stashes more than one block.
/// Decoders accept any count (shards written before the split decode).
inline constexpr std::size_t kMaxBlockEdges = std::size_t{1} << 16;
}  // namespace binfmt

}  // namespace prpb::io
