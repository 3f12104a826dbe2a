// Failure injection: storage faults, corrupted stages, missing inputs and
// malformed data must surface as typed errors (or be absorbed by the retry
// policy) at the kernel boundary — never as silent wrong answers or
// crashes. The matrix tests drive every backend × stage format through the
// deterministic FaultInjectingStageStore.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>

#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "fault/plan.hpp"
#include "io/edge_files.hpp"
#include "io/file_stream.hpp"
#include "io/stage_store.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace prpb::core {
namespace {

namespace fs = std::filesystem;

PipelineConfig config_in(const util::TempDir& work) {
  PipelineConfig config;
  config.scale = 8;
  config.num_files = 2;
  config.work_dir = work.path();
  return config;
}

PipelineConfig mem_config(const std::string& format) {
  PipelineConfig config;
  config.scale = 8;
  config.num_files = 2;
  config.storage = "mem";
  config.stage_format = format;
  return config;
}

int total_attempts(const PipelineResult& result) {
  return result.k0.attempts + result.k1.attempts + result.k2.attempts +
         result.k3.attempts;
}

double total_retry_count(const PipelineResult& result) {
  double total = 0.0;
  for (const auto& [name, value] : result.metrics.counters) {
    if (name.size() > 8 && name.compare(name.size() - 8, 8, "/retries") == 0) {
      total += value;
    }
  }
  return total;
}

// ---- fault matrix: every backend × stage format × fault kind ---------------

using MatrixParam = std::tuple<std::string, std::string, std::string>;

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const std::string plan = std::get<2>(info.param);
  std::string kind = plan.substr(0, plan.find_first_of("@#:*"));
  return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" + kind;
}

/// Transient faults (I/O errors, interrupted transfers, torn writes) are
/// absorbed by the retry policy: the run completes with bit-identical
/// ranks and reports exactly one consumed retry.
class RetryableFaultTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(RetryableFaultTest, RetryAbsorbsFaultWithIdenticalRanks) {
  const auto& [backend_name, format, plan] = GetParam();
  const PipelineConfig config = mem_config(format);
  const auto backend = make_backend(backend_name);

  const PipelineResult clean = run_pipeline(config, *backend);

  RunOptions faulted;
  faulted.fault_plan = fault::FaultPlan::parse(plan, 1234);
  faulted.retry.max_attempts = 4;
  faulted.retry.base_delay_ms = 0.0;  // tests never sleep
  const PipelineResult result = run_pipeline(config, *backend, faulted);

  EXPECT_EQ(result.ranks, clean.ranks);  // bit-identical, not just close
  EXPECT_EQ(rank_digest(result.ranks), rank_digest(clean.ranks));
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(total_attempts(result), 5) << "exactly one kernel retried once";
  EXPECT_EQ(total_retry_count(result), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, RetryableFaultTest,
    ::testing::Combine(::testing::Values("native", "parallel", "graphblas",
                                         "arraylang", "dataframe"),
                       ::testing::Values("tsv", "binary"),
                       ::testing::Values("read_error@k0_edges",
                                         "short_read@k0_edges",
                                         "write_error@k1_sorted",
                                         "torn_write@k1_sorted")),
    matrix_name);

/// Silent corruption (truncation, bit rot) cannot be retried away — the
/// checkpoint barrier detects it and fails the run with a typed error
/// before any downstream kernel can compute a wrong answer.
class CorruptionFaultTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(CorruptionFaultTest, CheckpointBarrierDetectsSilentCorruption) {
  const auto& [backend_name, format, plan] = GetParam();
  const PipelineConfig config = mem_config(format);
  const auto backend = make_backend(backend_name);

  RunOptions options;
  options.fault_plan = fault::FaultPlan::parse(plan, 99);
  options.checkpoint = true;
  options.retry.max_attempts = 3;  // retries must NOT mask corruption
  options.retry.base_delay_ms = 0.0;
  EXPECT_THROW(run_pipeline(config, *backend, options),
               util::CorruptionError);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CorruptionFaultTest,
    ::testing::Combine(::testing::Values("native", "parallel", "graphblas",
                                         "arraylang", "dataframe"),
                       ::testing::Values("tsv", "binary"),
                       ::testing::Values("truncate@k1_sorted",
                                         "bit_flip@k1_sorted")),
    matrix_name);

TEST(RetryBudgetTest, ExhaustedRetriesRethrowTheTransientFault) {
  const PipelineConfig config = mem_config("tsv");
  const auto backend = make_backend("native");
  RunOptions options;
  // Fires on every read of stage0 — no budget can outlast it.
  options.fault_plan =
      fault::FaultPlan::parse("read_error@k0_edges:p=1.0*1000", 5);
  options.retry.max_attempts = 3;
  options.retry.base_delay_ms = 0.0;
  EXPECT_THROW(run_pipeline(config, *backend, options),
               util::TransientIoError);
}

TEST(RetryBudgetTest, NoRetryPolicyFailsOnFirstTransientFault) {
  const PipelineConfig config = mem_config("tsv");
  const auto backend = make_backend("native");
  RunOptions options;
  options.fault_plan = fault::FaultPlan::parse("read_error@k0_edges", 5);
  EXPECT_THROW(run_pipeline(config, *backend, options),
               util::TransientIoError);
}

TEST(RetryBudgetTest, ReportCarriesResilienceFields) {
  const PipelineConfig config = mem_config("tsv");
  const auto backend = make_backend("native");
  RunOptions options;
  options.fault_plan = fault::FaultPlan::parse("torn_write@k1_sorted", 7);
  options.retry.max_attempts = 2;
  options.retry.base_delay_ms = 0.0;
  options.checkpoint = true;
  const PipelineResult result = run_pipeline(config, *backend, options);
  EXPECT_EQ(result.k1.attempts, 2);
  EXPECT_EQ(result.fault_plan, "torn_write@k1_sorted");
  EXPECT_TRUE(result.checkpointing);
  const std::string report = run_report_json(config, result, std::nullopt);
  EXPECT_NE(report.find("\"resilience\""), std::string::npos);
  EXPECT_NE(report.find("\"fault_plan\":\"torn_write@k1_sorted\""),
            std::string::npos);
  EXPECT_NE(report.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(report.find("\"faults_injected\":1"), std::string::npos);
}

// ---- checkpoint / resume ----------------------------------------------------

TEST(ResumeTest, ResumeSkipsCheckpointedKernelsWithIdenticalRanks) {
  util::TempDir work("prpb-resume");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");

  util::TempDir clean_work("prpb-resume-clean");
  PipelineConfig clean_config = config;
  clean_config.work_dir = clean_work.path();
  const PipelineResult clean = run_pipeline(clean_config, *backend);

  // Run 1 dies in kernel 2: reads of k1_sorted are (1) commit read-back of
  // shard 0, (2) commit read-back of shard 1, (3) kernel 2's first read —
  // so '#3' injects after both stages are checkpointed, like a crash
  // mid-K2.
  RunOptions failing;
  failing.checkpoint = true;
  failing.fault_plan = fault::FaultPlan::parse("read_error@k1_sorted#3", 7);
  EXPECT_THROW(run_pipeline(config, *backend, failing),
               util::TransientIoError);

  // Run 2 resumes: both stages validate, K0/K1 are skipped, and the final
  // ranks are bit-identical to a clean run.
  RunOptions resume;
  resume.resume = true;
  const PipelineResult result = run_pipeline(config, *backend, resume);
  EXPECT_TRUE(result.k0.resumed);
  EXPECT_TRUE(result.k1.resumed);
  EXPECT_EQ(result.k0.attempts, 1);
  EXPECT_EQ(result.ranks, clean.ranks);
  EXPECT_EQ(matrix_fingerprint(result.matrix), matrix_fingerprint(clean.matrix));
}

TEST(ResumeTest, ResumeWithNothingCheckpointedRunsEverything) {
  util::TempDir work("prpb-resume");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  RunOptions resume;
  resume.resume = true;
  const PipelineResult result = run_pipeline(config, *backend, resume);
  EXPECT_FALSE(result.k0.resumed);
  EXPECT_FALSE(result.k1.resumed);
  EXPECT_EQ(result.ranks.size(), config.num_vertices());
}

TEST(ResumeTest, ConfigChangeInvalidatesCheckpoints) {
  util::TempDir work("prpb-resume");
  PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  RunOptions checkpointed;
  checkpointed.checkpoint = true;
  (void)run_pipeline(config, *backend, checkpointed);

  config.seed += 1;  // stages under this seed are different data
  RunOptions resume;
  resume.resume = true;
  const PipelineResult result = run_pipeline(config, *backend, resume);
  EXPECT_FALSE(result.k0.resumed);
  EXPECT_FALSE(result.k1.resumed);
  EXPECT_EQ(result.ranks.size(), config.num_vertices());
}

TEST(ResumeTest, TamperedStageIsReRunNotTrusted) {
  util::TempDir work("prpb-resume");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  RunOptions checkpointed;
  checkpointed.checkpoint = true;
  const PipelineResult clean = run_pipeline(config, *backend, checkpointed);

  // Flip one byte of a checkpointed stage-0 shard behind the manifest's
  // back. Resume must notice, re-run from kernel 0, and still converge to
  // the correct answer.
  const fs::path shard =
      fs::path(config.work_dir) / stages::kStage0 / io::shard_name(0);
  std::string bytes = io::read_file(shard);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x04;
  io::write_file(shard, bytes);

  RunOptions resume;
  resume.resume = true;
  const PipelineResult result = run_pipeline(config, *backend, resume);
  EXPECT_FALSE(result.k0.resumed);
  EXPECT_EQ(result.ranks, clean.ranks);
}

// ---- error-message shape ----------------------------------------------------

TEST(FailureMessageTest, MissingStageNamesStageAndStoreKind) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  RunOptions options;
  options.run_kernel0 = false;  // stage0 never materialized
  try {
    (void)run_pipeline(config, *backend, options);
    FAIL() << "expected PipelineError";
  } catch (const util::PipelineError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 'k0_edges'"), std::string::npos) << what;
    EXPECT_NE(what.find("[store dir]"), std::string::npos) << what;
    EXPECT_NE(what.find("missing or empty"), std::string::npos) << what;
  }
}

// ---- legacy corruption scenarios (direct-kernel harness) -------------------

/// Direct-kernel harness: the store and stage names run_pipeline would use.
struct Harness {
  explicit Harness(const PipelineConfig& config)
      : store(config.work_dir) {}

  io::DirStageStore store;

  KernelContext context(const PipelineConfig& config, std::string in,
                        std::string out) {
    return KernelContext{config, store, std::move(in), std::move(out),
                         stages::kTemp};
  }
  [[nodiscard]] fs::path shard0(const PipelineConfig& config,
                                const std::string& stage) const {
    return fs::path(config.work_dir) / stage / io::shard_name(0);
  }
};

class FailureTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FailureTest, MissingStage0FailsKernel1) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend(GetParam());
  RunOptions options;
  options.run_kernel0 = false;  // stage0 never materialized
  EXPECT_THROW(run_pipeline(config, *backend, options), util::PipelineError);
}

TEST_P(FailureTest, CorruptedStage0FailsLoudly) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend(GetParam());
  Harness h(config);
  backend->kernel0(h.context(config, "", stages::kStage0));
  // inject garbage into the first shard
  io::write_file(h.shard0(config, stages::kStage0), "12\tnot-a-number\n");
  EXPECT_THROW(
      backend->kernel1(h.context(config, stages::kStage0, stages::kStage1)),
      util::Error);
}

TEST_P(FailureTest, TruncatedRecordDetected) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend(GetParam());
  Harness h(config);
  backend->kernel0(h.context(config, "", stages::kStage0));
  // chop the last shard mid-record: everything after the final record's
  // start field (and its tab) is lost
  const auto shards =
      util::list_files_sorted(fs::path(config.work_dir) / stages::kStage0);
  const std::string content = io::read_file(shards.back());
  const std::size_t cut = content.find_last_of('\t');
  ASSERT_NE(cut, std::string::npos);
  io::write_file(shards.back(), content.substr(0, cut + 1));
  EXPECT_THROW(
      backend->kernel1(h.context(config, stages::kStage0, stages::kStage1)),
      util::Error);
}

TEST_P(FailureTest, MissingFinalNewlineTolerated) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend(GetParam());
  Harness h(config);
  backend->kernel0(h.context(config, "", stages::kStage0));
  // chop only the final newline: the last record is complete, so every
  // decoder must accept it
  const auto shards =
      util::list_files_sorted(fs::path(config.work_dir) / stages::kStage0);
  const std::string content = io::read_file(shards.back());
  ASSERT_FALSE(content.empty());
  ASSERT_EQ(content.back(), '\n');
  io::write_file(shards.back(), content.substr(0, content.size() - 1));
  EXPECT_NO_THROW(
      backend->kernel1(h.context(config, stages::kStage0, stages::kStage1)));
}

TEST_P(FailureTest, OutOfRangeVertexFailsKernel2) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend(GetParam());
  Harness h(config);
  h.store.clear_stage(stages::kStage1);
  // vertex 99999 >= N = 256
  io::write_file(h.shard0(config, stages::kStage1), "1\t2\n99999\t3\n");
  EXPECT_THROW(
      (void)backend->kernel2(h.context(config, stages::kStage1, "")),
      util::Error);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FailureTest,
                         ::testing::Values("native", "parallel", "graphblas",
                                           "arraylang", "dataframe"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(FailureRecoveryTest, PipelineRecoversAfterFailedRun) {
  // A failed run must not poison the work dir for the next attempt.
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  Harness h(config);
  backend->kernel0(h.context(config, "", stages::kStage0));
  io::write_file(h.shard0(config, stages::kStage0), "garbage\n");
  EXPECT_THROW(
      backend->kernel1(h.context(config, stages::kStage0, stages::kStage1)),
      util::Error);
  // Full fresh run in the same work dir succeeds.
  const auto result = run_pipeline(config, *backend);
  EXPECT_EQ(result.ranks.size(), config.num_vertices());
}

TEST(FailureRecoveryTest, KernelMismatchedMatrixRejected) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  Harness h(config);
  const sparse::CsrMatrix wrong_size(8, 8);  // N should be 256
  EXPECT_THROW((void)backend->kernel3(h.context(config, "", ""), wrong_size),
               util::Error);
}

TEST(FailureRecoveryTest, NonDirectoryStagePathFails) {
  util::TempDir work("prpb-fail");
  PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  Harness h(config);
  // stage0 path exists as a *file*
  io::write_file(fs::path(config.work_dir) / stages::kStage0, "i am a file");
  EXPECT_THROW(backend->kernel0(h.context(config, "", stages::kStage0)),
               util::Error);
}

TEST(FailureRecoveryTest, UngroupedStage1FailsKernel2) {
  // K2 streams K1's stage into a row-grouped CSR build. A stage whose rows
  // go backwards cannot be K1's output: it fails naming the stage, and is
  // never re-sorted.
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  for (const char* name : {"native", "parallel"}) {
    const auto backend = make_backend(name);
    Harness h(config);
    h.store.clear_stage(stages::kStage1);
    io::write_file(h.shard0(config, stages::kStage1), "2\t1\n0\t3\n");
    try {
      (void)backend->kernel2(h.context(config, stages::kStage1, ""));
      ADD_FAILURE() << name << ": ungrouped stage accepted";
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(stages::kStage1),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FailureRecoveryTest, EmptyStageYieldsEmptyMatrixNotCrash) {
  util::TempDir work("prpb-fail");
  const PipelineConfig config = config_in(work);
  const auto backend = make_backend("native");
  Harness h(config);
  h.store.clear_stage(stages::kStage1);
  io::FileWriter empty(h.shard0(config, stages::kStage1));
  empty.close();
  const auto matrix =
      backend->kernel2(h.context(config, stages::kStage1, ""));
  EXPECT_EQ(matrix.nnz(), 0u);
  EXPECT_EQ(matrix.rows(), config.num_vertices());
}

}  // namespace
}  // namespace prpb::core
