// Property tests for the corruption-detection guarantees: ANY random
// truncation or single-byte corruption of a checkpointed stage must be
// caught by manifest validation, and the binary codec must never crash on
// corrupt shards — it either throws a typed error or returns records that
// checkpoint validation would reject anyway.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "gen/edge.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "rand/rng.hpp"
#include "util/error.hpp"

namespace prpb::fault {
namespace {

void put(io::StageStore& store, const std::string& stage,
         const std::string& shard, const std::string& payload) {
  auto writer = store.open_write(stage, shard);
  writer->write(payload);
  writer->close();
}

std::string get(io::StageStore& store, const std::string& stage,
                const std::string& shard) {
  auto reader = store.open_read(stage, shard);
  std::string out;
  for (;;) {
    const std::string_view chunk = reader->read_chunk();
    if (chunk.empty()) break;
    out.append(chunk);
  }
  return out;
}

/// Deterministic pseudo-random payload of `size` bytes.
std::string random_payload(rnd::Xoshiro256& rng, std::size_t size) {
  std::string out(size, '\0');
  for (auto& c : out) c = static_cast<char>(rng.next() & 0xff);
  return out;
}

TEST(CheckpointPropertyTest, AnyTruncationIsDetected) {
  rnd::Xoshiro256 rng(0x7472756eULL);
  for (int round = 0; round < 100; ++round) {
    io::MemStageStore base;
    ShardDigestStore digests(base);
    CheckpointManager checkpoints(digests, digests, 1, "tsv");
    const std::string payload =
        random_payload(rng, 1 + rng.next_below(4096));
    put(digests, "s", io::shard_name(0), payload);
    checkpoints.commit("s");
    // Truncate to any strictly shorter length (including zero).
    const std::size_t keep = rng.next_below(payload.size());
    put(base, "s", io::shard_name(0), payload.substr(0, keep));
    const ManifestCheck check = checkpoints.validate("s");
    EXPECT_EQ(check.status, ManifestStatus::kMismatch)
        << "round " << round << ": truncation to " << keep << " of "
        << payload.size() << " bytes escaped validation";
  }
}

TEST(CheckpointPropertyTest, AnySingleByteCorruptionIsDetected) {
  rnd::Xoshiro256 rng(0x62697466ULL);
  for (int round = 0; round < 100; ++round) {
    io::MemStageStore base;
    ShardDigestStore digests(base);
    CheckpointManager checkpoints(digests, digests, 1, "tsv");
    const std::string payload =
        random_payload(rng, 1 + rng.next_below(4096));
    put(digests, "s", io::shard_name(0), payload);
    checkpoints.commit("s");
    // Flip 1..8 bits of one byte (never a no-op XOR of 0).
    std::string tampered = payload;
    const std::size_t pos = rng.next_below(tampered.size());
    const char mask = static_cast<char>(1 + rng.next_below(255));
    tampered[pos] = static_cast<char>(tampered[pos] ^ mask);
    put(base, "s", io::shard_name(0), tampered);
    const ManifestCheck check = checkpoints.validate("s");
    EXPECT_EQ(check.status, ManifestStatus::kMismatch)
        << "round " << round << ": flip at " << pos << " escaped validation";
  }
}

TEST(CheckpointPropertyTest, ExtraAndMissingShardsAreDetected) {
  rnd::Xoshiro256 rng(0x73686172ULL);
  for (int round = 0; round < 50; ++round) {
    io::MemStageStore base;
    ShardDigestStore digests(base);
    CheckpointManager checkpoints(digests, digests, 1, "tsv");
    put(digests, "s", io::shard_name(0), random_payload(rng, 64));
    put(digests, "s", io::shard_name(1), random_payload(rng, 64));
    checkpoints.commit("s");
    if (round % 2 == 0) {
      base.remove_shard("s", io::shard_name(rng.next_below(2)));
    } else {
      put(base, "s", io::shard_name(2), "stray");
    }
    EXPECT_EQ(checkpoints.validate("s").status, ManifestStatus::kMismatch);
  }
}

TEST(ManifestPropertyTest, JsonRoundTripsArbitraryRecords) {
  rnd::Xoshiro256 rng(0x6a736f6eULL);
  for (int round = 0; round < 50; ++round) {
    StageManifest manifest;
    manifest.stage = "k";
    manifest.stage += std::to_string(rng.next_below(10));
    manifest.codec = (rng.next() & 1) != 0 ? "tsv" : "binary";
    manifest.config_fingerprint = rng.next();
    const std::size_t shards = rng.next_below(8);
    for (std::size_t i = 0; i < shards; ++i) {
      manifest.shards.push_back(
          {io::shard_name(i), rng.next_below(1 << 30), rng.next()});
    }
    const StageManifest parsed = StageManifest::parse(manifest.json());
    EXPECT_EQ(parsed.stage, manifest.stage);
    EXPECT_EQ(parsed.codec, manifest.codec);
    EXPECT_EQ(parsed.config_fingerprint, manifest.config_fingerprint);
    EXPECT_EQ(parsed.shards, manifest.shards);
  }
}

/// Encodes a deterministic edge list into one binary shard image.
std::string encode_binary(const gen::EdgeList& edges) {
  io::MemStageStore store;
  const io::StageCodec& codec = io::binary_codec();
  auto writer = store.open_write("s", "a");
  auto encoder = codec.make_encoder();
  encoder->begin(*writer);
  encoder->encode(*writer, edges);
  encoder->finish(*writer);
  writer->close();
  return get(store, "s", "a");
}

/// Feeds one shard image through the binary decoder. Returns true when the
/// decoder accepted it; a util::Error is the only acceptable failure mode.
bool decode_binary(const std::string& image, gen::EdgeList& out) {
  const io::StageCodec& codec = io::binary_codec();
  auto decoder = codec.make_decoder();
  try {
    decoder->feed(image, out);
    decoder->finish(out, "fuzz-shard");
    return true;
  } catch (const util::Error&) {
    return false;  // typed rejection is fine
  }
}

TEST(BinaryCodecFuzzTest, TruncatedShardsNeverCrashTheDecoder) {
  rnd::Xoshiro256 rng(0x62696e31ULL);
  gen::EdgeList edges;
  for (std::uint64_t i = 0; i < 500; ++i) {
    edges.push_back({rng.next_below(1 << 20), rng.next_below(1 << 20)});
  }
  const std::string image = encode_binary(edges);
  for (int round = 0; round < 200; ++round) {
    const std::string cut = image.substr(0, rng.next_below(image.size()));
    gen::EdgeList out;
    const bool accepted = decode_binary(cut, out);
    if (accepted) {
      // A truncation the format cannot distinguish from EOF must still
      // never invent records.
      EXPECT_LE(out.size(), edges.size());
    }
  }
}

TEST(BinaryCodecFuzzTest, CorruptedShardsNeverCrashTheDecoder) {
  rnd::Xoshiro256 rng(0x62696e32ULL);
  gen::EdgeList edges;
  for (std::uint64_t i = 0; i < 500; ++i) {
    edges.push_back({rng.next_below(1 << 20), rng.next_below(1 << 20)});
  }
  const std::string image = encode_binary(edges);
  for (int round = 0; round < 200; ++round) {
    std::string tampered = image;
    const std::size_t pos = rng.next_below(tampered.size());
    tampered[pos] =
        static_cast<char>(tampered[pos] ^ (1 + rng.next_below(255)));
    gen::EdgeList out;
    (void)decode_binary(tampered, out);  // must not crash or hang
  }
}

}  // namespace
}  // namespace prpb::fault
