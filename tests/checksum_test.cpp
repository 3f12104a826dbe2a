// Tests for the output-validation checksums (src/core/checksum.*).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "util/fs.hpp"

namespace prpb::core {
namespace {

using gen::Edge;
using gen::EdgeList;

TEST(ChecksumTest, MultisetHashOrderInsensitive) {
  const EdgeList a = {{1, 2}, {3, 4}, {5, 6}};
  EdgeList b = a;
  std::reverse(b.begin(), b.end());
  EXPECT_EQ(edge_multiset_hash(a), edge_multiset_hash(b));
}

TEST(ChecksumTest, MultisetHashCountsDuplicates) {
  const EdgeList once = {{1, 2}};
  const EdgeList twice = {{1, 2}, {1, 2}};
  EXPECT_NE(edge_multiset_hash(once), edge_multiset_hash(twice));
}

TEST(ChecksumTest, MultisetHashDetectsChangedEdge) {
  EXPECT_NE(edge_multiset_hash({{1, 2}}), edge_multiset_hash({{2, 1}}));
  EXPECT_NE(edge_multiset_hash({{1, 2}}), edge_multiset_hash({{1, 3}}));
}

TEST(ChecksumTest, SequenceHashOrderSensitive) {
  const EdgeList a = {{1, 2}, {3, 4}};
  const EdgeList b = {{3, 4}, {1, 2}};
  EXPECT_NE(edge_sequence_hash(a), edge_sequence_hash(b));
  EXPECT_EQ(edge_sequence_hash(a), edge_sequence_hash(a));
}

TEST(ChecksumTest, StageChecksumIndependentOfSharding) {
  gen::KroneckerParams params;
  params.scale = 8;
  const gen::KroneckerGenerator generator(params);
  util::TempDir dir("prpb-ck");
  io::DirStageStore store(dir.path());
  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  io::write_generated_edges(store, "a", generator, 1, codec);
  io::write_generated_edges(store, "b", generator, 8, codec);
  const StageChecksum a = stage_checksum(store, "a", codec);
  const StageChecksum b = stage_checksum(store, "b", codec);
  EXPECT_EQ(a.multiset, b.multiset);
  EXPECT_EQ(a.sequence, b.sequence);  // same order: contiguous split
  EXPECT_EQ(a.edges, generator.num_edges());
}

TEST(ChecksumTest, StageChecksumMatchesInMemoryHash) {
  gen::KroneckerParams params;
  params.scale = 7;
  const gen::KroneckerGenerator generator(params);
  util::TempDir dir("prpb-ck");
  io::DirStageStore store(dir.path());
  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  io::write_generated_edges(store, "s", generator, 3, codec);
  const StageChecksum on_disk = stage_checksum(store, "s", codec);
  const EdgeList edges = generator.generate_all();
  EXPECT_EQ(on_disk.multiset, edge_multiset_hash(edges));
  EXPECT_EQ(on_disk.sequence, edge_sequence_hash(edges));
}

TEST(ChecksumTest, SortPreservesMultisetChangesSequence) {
  util::TempDir work("prpb-ck");
  PipelineConfig config;
  config.scale = 8;
  config.work_dir = work.path();
  const auto backend = make_backend("native");
  run_pipeline(config, *backend);
  const auto store = make_stage_store(config);
  const io::StageCodec& codec = make_stage_codec(config);
  const StageChecksum stage0 = stage_checksum(*store, stages::kStage0, codec);
  const StageChecksum stage1 = stage_checksum(*store, stages::kStage1, codec);
  EXPECT_EQ(stage0.multiset, stage1.multiset);  // same edges
  EXPECT_NE(stage0.sequence, stage1.sequence);  // different order
  EXPECT_EQ(stage0.edges, stage1.edges);
}

TEST(ChecksumTest, MatrixFingerprintStableAndDiscriminating) {
  const auto a =
      sparse::CsrMatrix::from_triplets({0, 1}, {1, 0}, {0.5, 1.0}, 2, 2);
  const auto b =
      sparse::CsrMatrix::from_triplets({0, 1}, {1, 0}, {0.5, 1.0}, 2, 2);
  const auto c =
      sparse::CsrMatrix::from_triplets({0, 1}, {1, 0}, {0.5, 2.0}, 2, 2);
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(b));
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(c));
}

TEST(ChecksumTest, MatrixFingerprintToleratesTinyNoise) {
  const auto a =
      sparse::CsrMatrix::from_triplets({0}, {1}, {0.5}, 2, 2);
  const auto b =
      sparse::CsrMatrix::from_triplets({0}, {1}, {0.5 + 1e-13}, 2, 2);
  EXPECT_EQ(matrix_fingerprint(a, 1e-9), matrix_fingerprint(b, 1e-9));
}

TEST(ChecksumTest, RankDigestScaleInvariant) {
  const std::vector<double> r1 = {0.1, 0.3, 0.6};
  const std::vector<double> r2 = {1.0, 3.0, 6.0};  // same after L1 norm
  EXPECT_EQ(rank_digest(r1), rank_digest(r2));
  const std::vector<double> r3 = {0.3, 0.1, 0.6};
  EXPECT_NE(rank_digest(r1), rank_digest(r3));
}

TEST(ChecksumTest, CrossBackendRankDigestsAgree) {
  std::uint64_t reference = 0;
  for (const auto& name : backend_names()) {
    util::TempDir work("prpb-ck");
    PipelineConfig config;
    config.scale = 7;
    config.work_dir = work.path();
    const auto backend = make_backend(name);
    const auto result = run_pipeline(config, *backend);
    const std::uint64_t digest = rank_digest(result.ranks, 1e-9);
    if (reference == 0) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference) << "backend " << name;
    }
  }
}

TEST(ChecksumTest, DigestHexFormat) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xdeadbeefULL), "00000000deadbeef");
}

}  // namespace
}  // namespace prpb::core
