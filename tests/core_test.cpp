// Tests for src/core: configuration, Table II bookkeeping, the backend
// factory, validation helpers, and single-backend runner behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "core/backend.hpp"
#include "core/backend_arraylang.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "gen/generator.hpp"
#include "io/edge_files.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace prpb::core {
namespace {

PipelineConfig small_config(const util::TempDir& work, int scale = 8) {
  PipelineConfig config;
  config.scale = scale;
  config.work_dir = work.path();
  return config;
}

// ---- config -------------------------------------------------------------------

TEST(ConfigTest, DerivedQuantities) {
  util::TempDir work("prpb-core");
  const PipelineConfig config = small_config(work, 10);
  EXPECT_EQ(config.num_vertices(), 1024u);
  EXPECT_EQ(config.num_edges(), 16384u);
  EXPECT_STREQ(stages::kStage0, "k0_edges");
  EXPECT_STREQ(stages::kStage1, "k1_sorted");
}

TEST(ConfigTest, StorageKnobSelectsStore) {
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  EXPECT_EQ(make_stage_store(config)->kind(), "dir");
  config.storage = "mem";
  EXPECT_EQ(make_stage_store(config)->kind(), "mem");
  config.storage = "lustre";
  EXPECT_THROW(config.validate(), util::ConfigError);
  EXPECT_THROW(make_stage_store(config), util::ConfigError);
}

TEST(ConfigTest, UnknownStorageListsValidValues) {
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  config.storage = "lustre";
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lustre"), std::string::npos) << what;
    EXPECT_NE(what.find("dir"), std::string::npos) << what;
    EXPECT_NE(what.find("mem"), std::string::npos) << what;
  }
}

TEST(ConfigTest, UnknownStageFormatListsValidValues) {
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  config.stage_format = "parquet";
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parquet"), std::string::npos) << what;
    EXPECT_NE(what.find("tsv"), std::string::npos) << what;
    EXPECT_NE(what.find("binary"), std::string::npos) << what;
  }
}

TEST(ConfigTest, StageFormatKnobSelectsCodec) {
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  EXPECT_EQ(make_stage_codec(config).name(), "tsv");
  config.stage_format = "binary";
  EXPECT_EQ(make_stage_codec(config).name(), "binary");
  EXPECT_EQ(make_stage_codec(config).shard_extension(), ".bin");
}

TEST(ConfigTest, ValidationRejectsBadValues) {
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  config.scale = 0;
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = small_config(work);
  config.num_files = 0;
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = small_config(work);
  config.damping = -0.1;
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = small_config(work);
  config.generator = "unknown";
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = small_config(work);
  config.work_dir.clear();
  EXPECT_THROW(config.validate(), util::ConfigError);
  // ... unless stages live in memory, where no staging root is needed.
  config.storage = "mem";
  EXPECT_NO_THROW(config.validate());
  EXPECT_NO_THROW(small_config(work).validate());
}

// ---- Table II -------------------------------------------------------------------

TEST(RunSizeTest, MatchesPaperTable2) {
  // Table II rows: scale -> (max vertices, max edges, ~memory).
  const struct {
    int scale;
    std::uint64_t vertices;
    std::uint64_t edges;
  } rows[] = {
      {16, 65536, 1048576},        {17, 131072, 2097152},
      {18, 262144, 4194304},       {19, 524288, 8388608},
      {20, 1048576, 16777216},     {21, 2097152, 33554432},
      {22, 4194304, 67108864},
  };
  for (const auto& row : rows) {
    const RunSize size = run_size(row.scale);
    EXPECT_EQ(size.max_vertices, row.vertices) << "scale " << row.scale;
    EXPECT_EQ(size.max_edges, row.edges) << "scale " << row.scale;
    EXPECT_EQ(size.memory_bytes, 16 * row.edges) << "scale " << row.scale;
  }
}

TEST(RunSizeTest, Scale22IsRoughly1Point6GB) {
  // The paper: "Scale 22 results in ... an approximate memory footprint of
  // 1.6GB (assuming 16 bytes per edge)."
  const RunSize size = run_size(22);
  EXPECT_NEAR(static_cast<double>(size.memory_bytes) / 1e9, 1.07, 0.01);
  // (1.6 GB in the paper counts both u,v vectors and the file copy; raw
  //  edge structs are 16 B * 67.1M = 1.07e9 B — Table II's "~Memory" column
  //  uses binary units: 1.0 GiB. Both statements check out:)
  EXPECT_EQ(size.memory_bytes, 1073741824u);
}

TEST(RunSizeTest, Scale30MatchesIntroNumbers) {
  // §IV.A: "for a value of S = 30, N = 1,073,741,824 and
  // M = 17,179,869,184".
  const RunSize size = run_size(30);
  EXPECT_EQ(size.max_vertices, 1073741824u);
  EXPECT_EQ(size.max_edges, 17179869184u);
}

TEST(RunSizeTest, InvalidScaleThrows) {
  EXPECT_THROW(run_size(0), util::ConfigError);
  EXPECT_THROW(run_size(41), util::ConfigError);
}

// ---- factory -------------------------------------------------------------------

TEST(BackendFactoryTest, BuildsAllNames) {
  for (const auto& name : backend_names()) {
    const auto backend = make_backend(name);
    EXPECT_EQ(backend->name(), name);
  }
  EXPECT_EQ(backend_names().size(), 5u);
}

TEST(BackendFactoryTest, UnknownNameThrows) {
  EXPECT_THROW(make_backend("fortran"), util::ConfigError);
}

// ---- validate helpers ------------------------------------------------------------

TEST(ValidateTest, TopKOrdersByValue) {
  const std::vector<double> values = {0.1, 0.9, 0.5, 0.9, 0.2};
  const auto top = top_k(values, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // ties broken by lower index
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
}

TEST(ValidateTest, TopKClampsToSize) {
  EXPECT_EQ(top_k({1.0, 2.0}, 10).size(), 2u);
  EXPECT_TRUE(top_k({}, 3).empty());
}

TEST(ValidateTest, NormalizedDifferenceInvariantToScale) {
  const std::vector<double> a = {1.0, 3.0};
  const std::vector<double> b = {10.0, 30.0};
  EXPECT_NEAR(normalized_difference(a, b), 0.0, 1e-15);
  EXPECT_TRUE(ranks_agree(a, b));
}

TEST(ValidateTest, NormalizedDifferenceDetectsMismatch) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_NEAR(normalized_difference(a, b), 1.0, 1e-15);
  EXPECT_FALSE(ranks_agree(a, b));
}

TEST(ValidateTest, SizeMismatchThrows) {
  EXPECT_THROW(normalized_difference({1.0}, {1.0, 2.0}),
               util::ConfigError);
}

TEST(ValidateTest, EigenCheckPassesOnCorrectRanks) {
  const auto generator = gen::make_generator("kronecker", 8, 16, 5);
  const sparse::CsrMatrix a = sparse::filter_edges(
      generator->generate_all(), generator->num_vertices());
  sparse::PageRankConfig pr;
  pr.iterations = 40;
  const auto r = sparse::pagerank(a, pr);
  const auto check = validate_against_eigenvector(a, r, pr.damping, 1e-6);
  EXPECT_TRUE(check.pass);
  EXPECT_LT(check.max_abs_diff, 1e-6);
}

TEST(ValidateTest, EigenCheckFailsOnWrongRanks) {
  const auto generator = gen::make_generator("kronecker", 8, 16, 5);
  const sparse::CsrMatrix a = sparse::filter_edges(
      generator->generate_all(), generator->num_vertices());
  std::vector<double> wrong(a.rows(), 0.0);
  wrong[0] = 1.0;  // delta mass is not the stationary distribution
  const auto check = validate_against_eigenvector(a, wrong, 0.85, 1e-6);
  EXPECT_FALSE(check.pass);
}

TEST(ValidateTest, EigenCheckRefusesHugeN) {
  const sparse::CsrMatrix a(1 << 20, 1 << 20);
  const std::vector<double> r(1 << 20, 0.0);
  EXPECT_THROW(validate_against_eigenvector(a, r, 0.85),
               util::ConfigError);
}

// ---- runner --------------------------------------------------------------------

TEST(RunnerTest, ProducesCompleteResult) {
  util::TempDir work("prpb-core");
  const PipelineConfig config = small_config(work);
  const auto backend = make_backend("native");
  const PipelineResult result = run_pipeline(config, *backend);

  EXPECT_EQ(result.backend, "native");
  EXPECT_EQ(result.num_edges, config.num_edges());
  EXPECT_EQ(result.ranks.size(), config.num_vertices());
  EXPECT_GT(result.matrix.nnz(), 0u);
  EXPECT_GT(result.k1.seconds, 0.0);
  EXPECT_GT(result.k1.edges_per_second(), 0.0);
  EXPECT_EQ(result.k3.edges_processed, 20 * config.num_edges());
}

TEST(RunnerTest, StagesLandInConfiguredDirectories) {
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  config.num_files = 3;
  const auto backend = make_backend("native");
  run_pipeline(config, *backend);
  const auto stage_dir = [&](const char* stage) {
    return config.work_dir / stage;
  };
  EXPECT_EQ(util::list_files_sorted(stage_dir(stages::kStage0)).size(), 3u);
  EXPECT_EQ(util::list_files_sorted(stage_dir(stages::kStage1)).size(), 3u);
}

TEST(RunnerTest, ReportsPerKernelStageIo) {
  util::TempDir work("prpb-core");
  const PipelineConfig config = small_config(work);
  const auto backend = make_backend("native");
  const PipelineResult result = run_pipeline(config, *backend);
  EXPECT_EQ(result.storage, "dir");
  // K0 only writes, K2 only reads; K1 reads what K0 wrote.
  EXPECT_EQ(result.k0.bytes_read, 0u);
  EXPECT_GT(result.k0.bytes_written, 0u);
  EXPECT_EQ(result.k1.bytes_read, result.k0.bytes_written);
  EXPECT_GT(result.k1.bytes_written, 0u);
  EXPECT_EQ(result.k2.bytes_read, result.k1.bytes_written);
  EXPECT_EQ(result.k2.bytes_written, 0u);
  EXPECT_EQ(result.k3.bytes_read, 0u);
  EXPECT_EQ(result.k3.bytes_written, 0u);
  EXPECT_EQ(result.k0.files_written, config.num_files);
  EXPECT_EQ(result.k1.files_read, config.num_files);
}

TEST(RunnerTest, InjectedStoreIsUsed) {
  io::MemStageStore store;
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  config.storage = "mem";
  const auto backend = make_backend("native");
  RunOptions options;
  options.store = &store;
  const PipelineResult result = run_pipeline(config, *backend, options);
  EXPECT_EQ(result.storage, "mem");
  EXPECT_TRUE(store.exists(stages::kStage0));
  EXPECT_TRUE(store.exists(stages::kStage1));
  EXPECT_GT(store.stage_bytes(stages::kStage0), 0u);
}

TEST(RunnerTest, SkipKernel0ReusesExistingStage) {
  util::TempDir work("prpb-core");
  const PipelineConfig config = small_config(work);
  const auto backend = make_backend("native");
  const PipelineResult first = run_pipeline(config, *backend);

  RunOptions options;
  options.run_kernel0 = false;  // stage0 already on disk
  const PipelineResult second = run_pipeline(config, *backend, options);
  EXPECT_EQ(second.k0.seconds, 0.0);
  EXPECT_EQ(first.ranks, second.ranks);
}

TEST(RunnerTest, KeepMatrixFalseDropsMatrix) {
  util::TempDir work("prpb-core");
  const PipelineConfig config = small_config(work);
  const auto backend = make_backend("native");
  RunOptions options;
  options.keep_matrix = false;
  const PipelineResult result = run_pipeline(config, *backend, options);
  EXPECT_EQ(result.matrix.nnz(), 0u);
  EXPECT_FALSE(result.ranks.empty());
}

TEST(RunnerTest, InvalidConfigRejectedBeforeWork) {
  util::TempDir work("prpb-core");
  PipelineConfig config = small_config(work);
  config.iterations = -5;
  const auto backend = make_backend("native");
  EXPECT_THROW(run_pipeline(config, *backend), util::ConfigError);
}

TEST(RunnerTest, MemoryBudgetTriggersExternalSortSameResult) {
  // Every backend that sorts in memory takes the same out-of-core branch.
  for (const char* name : {"native", "parallel"}) {
    SCOPED_TRACE(name);
    util::TempDir work_a("prpb-core");
    util::TempDir work_b("prpb-core");
    PipelineConfig in_memory = small_config(work_a);
    PipelineConfig external = small_config(work_b);
    external.memory_budget_bytes = 64 * 1024;  // far below 2*M*16 at scale 8

    const auto backend = make_backend(name);
    const auto result_a = run_pipeline(in_memory, *backend);
    const auto result_b = run_pipeline(external, *backend);
    EXPECT_EQ(result_a.metrics.counters.count("k1_external_sort"), 0u);
    EXPECT_EQ(result_b.metrics.counters.count("k1_external_sort"), 1u);
    io::DirStageStore store_a(in_memory.work_dir);
    io::DirStageStore store_b(external.work_dir);
    const io::StageCodec& codec = make_stage_codec(in_memory);
    EXPECT_EQ(io::read_all_edges(store_a, stages::kStage1, codec),
              io::read_all_edges(store_b, stages::kStage1, codec));
    EXPECT_EQ(result_a.ranks, result_b.ranks);
  }
}

TEST(KernelMetricsTest, SubMicrosecondKernelStillReportsRate) {
  KernelMetrics metrics;
  metrics.edges_processed = 1000;
  metrics.seconds = 0.0;  // faster than the clock can resolve
  EXPECT_GT(metrics.edges_per_second(), 0.0);
  EXPECT_EQ(metrics.edges_per_second(),
            1000.0 / KernelMetrics::kMinMeasurableSeconds);
  metrics.seconds = 2.0;
  EXPECT_EQ(metrics.edges_per_second(), 500.0);
  metrics.edges_processed = 0;  // nothing processed -> rate really is 0
  EXPECT_EQ(metrics.edges_per_second(), 0.0);
}

// ---- arraylang kernel sources -----------------------------------------------------

TEST(ArrayLangSourceTest, KernelSourcesAreNonTrivialPrograms) {
  for (const char* source :
       {ArrayLangBackend::kernel0_source(), ArrayLangBackend::kernel1_source(),
        ArrayLangBackend::kernel2_source(),
        ArrayLangBackend::kernel3_source()}) {
    EXPECT_GT(std::string(source).size(), 50u);
  }
}

}  // namespace
}  // namespace prpb::core
