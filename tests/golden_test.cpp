// Golden conformance vectors — committed checksums (tests/data/
// golden_checksums.json) that every backend × stage codec × store
// combination must reproduce, and that pin the pipeline's
// numerical output across refactors. The recorded digests are
// representation-independent by design: rank digests quantize before
// hashing, stage checksums hash decoded records, so one golden value per
// scale covers the whole combination matrix. The one exception is
// `rank_bits`, a hash of the raw rank bits that sees a single ulp: the
// paths that sum in the reference order (native, the pooled parallel
// SpMV, the simulated cluster) assert it.
//
// Regenerate after an intentional output change with:
//   PRPB_UPDATE_GOLDEN=1 ctest -R GoldenData.Regenerate
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>

#include "core/backend.hpp"
#include "core/backend_parallel.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "dist/pipeline.hpp"
#include "io/file_stream.hpp"
#include "io/stage_store.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

#ifndef PRPB_TEST_DATA_DIR
#error "PRPB_TEST_DATA_DIR must point at tests/data"
#endif

namespace prpb::core {
namespace {

constexpr const char* kGoldenPath = PRPB_TEST_DATA_DIR "/golden_checksums.json";

struct GoldenEntry {
  std::string rank_digest;
  std::string rank_bits;  ///< exact; asserted by the scale sweep only
  std::string matrix_fingerprint;
  std::string stage0_multiset;
  std::string stage1_multiset;
  std::string stage1_sequence;
  std::uint64_t edges = 0;
  // Algorithm-stage vectors: exact integer outputs, so the committed
  // values pin every backend's BFS/CC formulation bit-for-bit.
  std::string bfs_levels_digest;
  std::string cc_labels_digest;
  std::uint64_t bfs_source = 0;
};

PipelineConfig golden_config(int scale) {
  PipelineConfig config;
  config.scale = scale;
  config.num_files = 2;
  config.storage = "mem";
  config.algorithms = {"pagerank", "bfs", "cc"};
  return config;
}

std::optional<GoldenEntry> load_golden(int scale) {
  const std::string text = io::read_file(kGoldenPath);
  const util::JsonValue doc = util::JsonValue::parse(text);
  const util::JsonValue* entry =
      doc.find("scale_" + std::to_string(scale));
  if (entry == nullptr) return std::nullopt;
  GoldenEntry golden;
  golden.rank_digest = entry->at("rank_digest").string();
  golden.rank_bits = entry->at("rank_bits").string();
  golden.matrix_fingerprint = entry->at("matrix_fingerprint").string();
  golden.stage0_multiset = entry->at("stage0_multiset").string();
  golden.stage1_multiset = entry->at("stage1_multiset").string();
  golden.stage1_sequence = entry->at("stage1_sequence").string();
  golden.edges = static_cast<std::uint64_t>(entry->at("edges").number());
  golden.bfs_levels_digest = entry->at("bfs_levels_digest").string();
  golden.cc_labels_digest = entry->at("cc_labels_digest").string();
  golden.bfs_source =
      static_cast<std::uint64_t>(entry->at("bfs_source").number());
  return golden;
}

/// Runs the pipeline and distills the conformance digests. The store is
/// injected so stage checksums can be computed after the run.
GoldenEntry measure(const PipelineConfig& config, PipelineBackend& backend) {
  io::StageStore* store = nullptr;
  io::MemStageStore mem;
  io::DirStageStore dir(config.work_dir);
  store = config.storage == "mem" ? static_cast<io::StageStore*>(&mem)
                                  : static_cast<io::StageStore*>(&dir);
  RunOptions options;
  options.store = store;
  const PipelineResult result = run_pipeline(config, backend, options);
  const io::StageCodec& codec = make_stage_codec(config);
  const StageChecksum s0 = stage_checksum(*store, stages::kStage0, codec);
  const StageChecksum s1 = stage_checksum(*store, stages::kStage1, codec);
  GoldenEntry entry;
  entry.rank_digest = digest_hex(rank_digest(result.ranks));
  entry.rank_bits = digest_hex(rank_bits_digest(result.ranks));
  entry.matrix_fingerprint = digest_hex(matrix_fingerprint(result.matrix));
  entry.stage0_multiset = digest_hex(s0.multiset);
  entry.stage1_multiset = digest_hex(s1.multiset);
  entry.stage1_sequence = digest_hex(s1.sequence);
  entry.edges = s1.edges;
  for (const AlgorithmRun& run : result.algorithms) {
    if (run.output.algorithm == "bfs") {
      entry.bfs_levels_digest = run.output.checksum;
      entry.bfs_source = run.output.bfs_source;
    } else if (run.output.algorithm == "cc") {
      entry.cc_labels_digest = run.output.checksum;
    }
  }
  return entry;
}

void expect_matches(const GoldenEntry& actual, const GoldenEntry& golden,
                    const std::string& label) {
  EXPECT_EQ(actual.rank_digest, golden.rank_digest) << label;
  EXPECT_EQ(actual.matrix_fingerprint, golden.matrix_fingerprint) << label;
  EXPECT_EQ(actual.stage0_multiset, golden.stage0_multiset) << label;
  EXPECT_EQ(actual.stage1_multiset, golden.stage1_multiset) << label;
  EXPECT_EQ(actual.stage1_sequence, golden.stage1_sequence) << label;
  EXPECT_EQ(actual.edges, golden.edges) << label;
  EXPECT_EQ(actual.bfs_levels_digest, golden.bfs_levels_digest) << label;
  EXPECT_EQ(actual.cc_labels_digest, golden.cc_labels_digest) << label;
  EXPECT_EQ(actual.bfs_source, golden.bfs_source) << label;
}

// ---- full combination matrix at scale 8 ------------------------------------

// The "_ref" name suffix keeps the test IDs of the retired --fast-path
// axis, whose reference schedule is the one every backend now runs.
using ComboParam = std::tuple<std::string, std::string, std::string>;

std::string combo_name(const ::testing::TestParamInfo<ComboParam>& info) {
  return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
         std::get<2>(info.param) + "_ref";
}

class GoldenComboTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(GoldenComboTest, ReproducesCommittedChecksums) {
  const auto& [backend_name, format, storage] = GetParam();
  const auto golden = load_golden(8);
  ASSERT_TRUE(golden.has_value()) << "no scale_8 entry in " << kGoldenPath;

  PipelineConfig config = golden_config(8);
  config.stage_format = format;
  config.storage = storage;
  std::optional<util::TempDir> work;
  if (storage == "dir") {
    work.emplace("prpb-golden");
    config.work_dir = work->path();
  }
  expect_matches(measure(config, *make_backend(backend_name)), *golden,
                 combo_name(::testing::TestParamInfo<ComboParam>(GetParam(), 0)));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GoldenComboTest,
    ::testing::Combine(::testing::Values("native", "parallel", "graphblas",
                                         "arraylang", "dataframe"),
                       ::testing::Values("tsv", "binary"),
                       ::testing::Values("mem", "dir")),
    combo_name);

// ---- scale sweep 9..12 (reduced combination set) ---------------------------

class GoldenScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenScaleTest, NativeTsvReproducesCommittedChecksums) {
  const int scale = GetParam();
  const auto golden = load_golden(scale);
  ASSERT_TRUE(golden.has_value())
      << "no scale_" << scale << " entry in " << kGoldenPath;
  const PipelineConfig config = golden_config(scale);
  const GoldenEntry actual = measure(config, *make_backend("native"));
  const std::string label = "native/tsv/mem scale " + std::to_string(scale);
  expect_matches(actual, *golden, label);
  EXPECT_EQ(actual.rank_bits, golden->rank_bits) << label;
}

// Named for the retired --fast-path schedule, which is now the parallel
// backend's only one.
TEST_P(GoldenScaleTest, ParallelBinaryFastPathReproducesCommittedChecksums) {
  const int scale = GetParam();
  const auto golden = load_golden(scale);
  ASSERT_TRUE(golden.has_value())
      << "no scale_" << scale << " entry in " << kGoldenPath;
  PipelineConfig config = golden_config(scale);
  config.stage_format = "binary";
  // Four threads whatever the host reports, so the radix sort's
  // multi-chunk scan and scatter stay pinned by the committed digests.
  ParallelBackend backend(4);
  const GoldenEntry actual = measure(config, backend);
  const std::string label = "parallel(4)/binary scale " + std::to_string(scale);
  expect_matches(actual, *golden, label);
  EXPECT_EQ(actual.rank_bits, golden->rank_bits) << label;
}

// The simulated cluster's column decomposition on three ranks (uneven
// blocks) must land on the same kernel-3 ranks as the serial pipeline,
// bit for bit.
TEST_P(GoldenScaleTest, DistributedThreeRanksReproducesRankDigest) {
  const int scale = GetParam();
  const auto golden = load_golden(scale);
  ASSERT_TRUE(golden.has_value())
      << "no scale_" << scale << " entry in " << kGoldenPath;
  const PipelineConfig serial = golden_config(scale);
  dist::DistConfig config;
  config.scale = serial.scale;
  config.edge_factor = serial.edge_factor;
  config.seed = serial.seed;
  config.generator = serial.generator;
  config.iterations = serial.iterations;
  config.damping = serial.damping;
  const dist::DistResult result = dist::run_distributed(config, 3);
  EXPECT_EQ(digest_hex(rank_digest(result.ranks)), golden->rank_digest)
      << "dist(3) scale " << scale;
  EXPECT_EQ(digest_hex(rank_bits_digest(result.ranks)), golden->rank_bits)
      << "dist(3) scale " << scale;
}

INSTANTIATE_TEST_SUITE_P(Scales, GoldenScaleTest,
                         ::testing::Values(9, 10, 11, 12),
                         [](const ::testing::TestParamInfo<int>& scale) {
                           return "scale_" + std::to_string(scale.param);
                         });

// ---- resilience must not perturb golden output -----------------------------

TEST(GoldenResilienceTest, RetriedAndCheckpointedRunsStayOnGolden) {
  const auto golden = load_golden(8);
  ASSERT_TRUE(golden.has_value());
  const PipelineConfig config = golden_config(8);
  const auto backend = make_backend("native");
  io::MemStageStore store;
  RunOptions options;
  options.store = &store;
  options.checkpoint = true;
  options.fault_plan = fault::FaultPlan::parse("torn_write@k1_sorted", 21);
  options.retry.max_attempts = 3;
  options.retry.base_delay_ms = 0.0;
  const PipelineResult result = run_pipeline(config, *backend, options);
  EXPECT_EQ(digest_hex(rank_digest(result.ranks)), golden->rank_digest);
  EXPECT_EQ(digest_hex(matrix_fingerprint(result.matrix)),
            golden->matrix_fingerprint);
}

// ---- regeneration -----------------------------------------------------------

TEST(GoldenData, Regenerate) {
  if (std::getenv("PRPB_UPDATE_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set PRPB_UPDATE_GOLDEN=1 to rewrite " << kGoldenPath;
  }
  util::JsonWriter json;
  json.begin_object();
  for (int scale = 8; scale <= 12; ++scale) {
    const GoldenEntry entry =
        measure(golden_config(scale), *make_backend("native"));
    json.begin_object("scale_" + std::to_string(scale));
    json.field("rank_digest", entry.rank_digest);
    json.field("matrix_fingerprint", entry.matrix_fingerprint);
    json.field("stage0_multiset", entry.stage0_multiset);
    json.field("stage1_multiset", entry.stage1_multiset);
    json.field("stage1_sequence", entry.stage1_sequence);
    json.field("edges", entry.edges);
    json.field("bfs_levels_digest", entry.bfs_levels_digest);
    json.field("cc_labels_digest", entry.cc_labels_digest);
    json.field("bfs_source", entry.bfs_source);
    json.field("rank_bits", entry.rank_bits);
    json.end_object();
  }
  json.end_object();
  io::write_file(kGoldenPath, json.str() + "\n");
  std::printf("golden checksums rewritten: %s\n", kGoldenPath);
}

}  // namespace
}  // namespace prpb::core
