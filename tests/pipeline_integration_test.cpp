// Integration tests: the five backends run the full pipeline end-to-end and
// must agree — same stage files, same filtered matrix, same PageRank vector
// (up to fp tolerance) — for every generator. This is the repo's
// cross-backend contract (DESIGN.md §6.5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/backend.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "util/fs.hpp"

namespace prpb::core {
namespace {

PipelineConfig config_for(const util::TempDir& work, int scale = 8,
                          const std::string& generator = "kronecker") {
  PipelineConfig config;
  config.scale = scale;
  config.generator = generator;
  config.num_files = 2;
  config.work_dir = work.path();
  return config;
}

/// Decodes a stage a run left under config.work_dir.
gen::EdgeList read_stage(const PipelineConfig& config, const char* stage) {
  io::DirStageStore store(config.work_dir);
  return io::read_all_edges(store, stage, make_stage_codec(config));
}

PipelineResult run_backend(const std::string& name,
                           const PipelineConfig& config) {
  const auto backend = make_backend(name);
  return run_pipeline(config, *backend);
}

// ---- per-backend sanity (parameterized over backends) -------------------------

class BackendPipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendPipelineTest, FullPipelineProducesValidRanks) {
  util::TempDir work("prpb-integ");
  const PipelineConfig config = config_for(work);
  const PipelineResult result = run_backend(GetParam(), config);

  ASSERT_EQ(result.ranks.size(), config.num_vertices());
  for (const double r : result.ranks) {
    EXPECT_GE(r, 0.0);
    EXPECT_TRUE(std::isfinite(r));
  }
  // The paper's validation: r parallels the leading eigenvector of
  // c*A' + (1-c)/N. 20 iterations at this scale land well under 1e-6.
  const auto check = validate_against_eigenvector(result.matrix,
                                                  result.ranks, 0.85, 1e-6);
  EXPECT_TRUE(check.pass) << "max diff " << check.max_abs_diff;
}

TEST_P(BackendPipelineTest, StageFilesMatchNativeByteSemantics) {
  // Kernel 0 and kernel 1 stage contents must be identical across backends
  // (identical edges in identical order).
  util::TempDir work_native("prpb-integ");
  util::TempDir work_other("prpb-integ");
  const PipelineConfig config_n = config_for(work_native);
  const PipelineConfig config_o = config_for(work_other);

  run_backend("native", config_n);
  run_backend(GetParam(), config_o);

  EXPECT_EQ(read_stage(config_n, stages::kStage0),
            read_stage(config_o, stages::kStage0))
      << "kernel 0 stage differs";
  EXPECT_EQ(read_stage(config_n, stages::kStage1),
            read_stage(config_o, stages::kStage1))
      << "kernel 1 stage differs";
}

TEST_P(BackendPipelineTest, MemStorageMatchesDirStorage) {
  // The storage ablation must not change any result: identical stage
  // checksums, fp-identical ranks.
  util::TempDir work("prpb-integ");
  PipelineConfig config_dir = config_for(work);
  PipelineConfig config_mem = config_for(work);
  config_mem.storage = "mem";

  const PipelineResult on_dir = run_backend(GetParam(), config_dir);
  const PipelineResult in_mem = run_backend(GetParam(), config_mem);
  EXPECT_EQ(on_dir.storage, "dir");
  EXPECT_EQ(in_mem.storage, "mem");
  EXPECT_TRUE(on_dir.matrix.approx_equal(in_mem.matrix, 0.0));
  EXPECT_EQ(on_dir.ranks, in_mem.ranks);
}

TEST_P(BackendPipelineTest, MatrixMatchesNative) {
  util::TempDir work_native("prpb-integ");
  util::TempDir work_other("prpb-integ");
  const PipelineResult native =
      run_backend("native", config_for(work_native));
  const PipelineResult other =
      run_backend(GetParam(), config_for(work_other));
  EXPECT_TRUE(native.matrix.approx_equal(other.matrix, 0.0));
}

TEST_P(BackendPipelineTest, RanksMatchNative) {
  util::TempDir work_native("prpb-integ");
  util::TempDir work_other("prpb-integ");
  const PipelineResult native =
      run_backend("native", config_for(work_native));
  const PipelineResult other =
      run_backend(GetParam(), config_for(work_other));
  EXPECT_EQ(native.ranks, other.ranks);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendPipelineTest,
                         ::testing::Values("native", "parallel", "graphblas",
                                           "arraylang", "dataframe"),
                         [](const auto& info) { return info.param; });

// ---- generator sweep ------------------------------------------------------------

class GeneratorPipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratorPipelineTest, NativeAndArraylangAgree) {
  util::TempDir work_native("prpb-integ");
  util::TempDir work_interp("prpb-integ");
  const PipelineResult native =
      run_backend("native", config_for(work_native, 8, GetParam()));
  const PipelineResult interp =
      run_backend("arraylang", config_for(work_interp, 8, GetParam()));
  EXPECT_TRUE(native.matrix.approx_equal(interp.matrix, 0.0));
  EXPECT_EQ(native.ranks, interp.ranks);
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, GeneratorPipelineTest,
                         ::testing::Values("kronecker", "bter", "ppl"),
                         [](const auto& info) { return info.param; });

// ---- cross-cutting properties ----------------------------------------------------

TEST(PipelinePropertyTest, Kernel1OutputIsSortedAndSameMultiset) {
  util::TempDir work("prpb-integ");
  const PipelineConfig config = config_for(work, 9);
  run_backend("native", config);

  auto stage0 = read_stage(config, stages::kStage0);
  auto stage1 = read_stage(config, stages::kStage1);
  EXPECT_TRUE(std::is_sorted(stage1.begin(), stage1.end()));
  std::sort(stage0.begin(), stage0.end());
  EXPECT_EQ(stage0, stage1);  // sorting is a permutation
}

TEST(PipelinePropertyTest, SeedChangesEverything) {
  util::TempDir work_a("prpb-integ");
  util::TempDir work_b("prpb-integ");
  PipelineConfig config_a = config_for(work_a);
  PipelineConfig config_b = config_for(work_b);
  config_b.seed = 1;
  const auto a = run_backend("native", config_a);
  const auto b = run_backend("native", config_b);
  EXPECT_GT(normalized_difference(a.ranks, b.ranks), 1e-6);
}

TEST(PipelinePropertyTest, ShardCountDoesNotChangeResults) {
  util::TempDir work_a("prpb-integ");
  util::TempDir work_b("prpb-integ");
  PipelineConfig config_a = config_for(work_a);
  PipelineConfig config_b = config_for(work_b);
  config_a.num_files = 1;
  config_b.num_files = 8;
  const auto a = run_backend("native", config_a);
  const auto b = run_backend("native", config_b);
  EXPECT_EQ(a.ranks, b.ranks);
}

TEST(PipelinePropertyTest, SortKeyStartOnlyStillValidRanks) {
  // The paper's open question "Should the end vertices also be sorted?"
  // must not affect kernels 2-3 (the matrix is order-independent).
  util::TempDir work_a("prpb-integ");
  util::TempDir work_b("prpb-integ");
  PipelineConfig config_a = config_for(work_a);
  PipelineConfig config_b = config_for(work_b);
  config_b.sort_key = sort::SortKey::kStart;
  const auto a = run_backend("native", config_a);
  const auto b = run_backend("native", config_b);
  EXPECT_TRUE(a.matrix.approx_equal(b.matrix, 0.0));
  EXPECT_EQ(a.ranks, b.ranks);
}

TEST(PipelinePropertyTest, RerunIsIdempotent) {
  util::TempDir work("prpb-integ");
  const PipelineConfig config = config_for(work);
  const auto backend = make_backend("native");
  const auto first = run_pipeline(config, *backend);
  const auto second = run_pipeline(config, *backend);
  EXPECT_EQ(first.ranks, second.ranks);
  EXPECT_TRUE(first.matrix.approx_equal(second.matrix, 0.0));
}

TEST(PipelinePropertyTest, LargerScaleKeepsInvariants) {
  util::TempDir work("prpb-integ");
  const PipelineConfig config = config_for(work, 12);
  const auto result = run_backend("native", config);
  // row sums 0 or 1
  for (const double s : result.matrix.row_sums()) {
    EXPECT_TRUE(s == 0.0 || std::abs(s - 1.0) < 1e-12);
  }
  EXPECT_EQ(result.ranks.size(), 1u << 12);
}

TEST(PipelinePropertyTest, EdgeFactorPropagates) {
  util::TempDir work("prpb-integ");
  PipelineConfig config = config_for(work);
  config.edge_factor = 4;
  const auto result = run_backend("native", config);
  EXPECT_EQ(result.num_edges, 4u << 8);
  EXPECT_EQ(read_stage(config, stages::kStage0).size(), 4u << 8);
}

}  // namespace
}  // namespace prpb::core
