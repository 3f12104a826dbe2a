// Unit tests for the fault subsystem: FaultPlan grammar, deterministic
// trigger evaluation, the injecting reader/writer wrappers, RetryPolicy
// backoff, shard digests, and checkpoint manifests.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "io/stage_store.hpp"
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

// ---- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  const FaultPlan plan = FaultPlan::parse("", 7);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.str(), "");
  EXPECT_EQ(plan.seed, 7u);
}

TEST(FaultPlanTest, DefaultsToFirstMatchingOperationOnce) {
  const FaultPlan plan = FaultPlan::parse("read_error", 1);
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kReadError);
  EXPECT_TRUE(plan.rules[0].stage.empty());
  EXPECT_EQ(plan.rules[0].nth, 1u);
  EXPECT_EQ(plan.rules[0].max_fires, 1u);
}

TEST(FaultPlanTest, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse(
      "read_error;short_read;write_error;torn_write;truncate;bit_flip", 1);
  ASSERT_EQ(plan.rules.size(), 6u);
  EXPECT_EQ(plan.rules[1].kind, FaultKind::kShortRead);
  EXPECT_EQ(plan.rules[5].kind, FaultKind::kBitFlip);
}

TEST(FaultPlanTest, ParsesStageAndTriggerFilters) {
  const FaultPlan plan =
      FaultPlan::parse("torn_write@k1_sorted#3, short_read:p=0.25*4", 1);
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].stage, "k1_sorted");
  EXPECT_EQ(plan.rules[0].nth, 3u);
  EXPECT_EQ(plan.rules[0].max_fires, 1u);
  EXPECT_EQ(plan.rules[1].nth, 0u);
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 0.25);
  EXPECT_EQ(plan.rules[1].max_fires, 4u);
}

TEST(FaultPlanTest, CanonicalStringRoundTrips) {
  const std::string spec = "torn_write@k1_sorted#3;short_read:p=0.25*4";
  const FaultPlan plan = FaultPlan::parse(spec, 1);
  const FaultPlan again = FaultPlan::parse(plan.str(), 1);
  ASSERT_EQ(again.rules.size(), plan.rules.size());
  EXPECT_EQ(again.str(), plan.str());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("disk_melt", 1), util::ConfigError);
  EXPECT_THROW(FaultPlan::parse("read_error#zero", 1), util::ConfigError);
  EXPECT_THROW(FaultPlan::parse("read_error#0", 1), util::ConfigError);
  EXPECT_THROW(FaultPlan::parse("read_error:p=1.5", 1), util::ConfigError);
  EXPECT_THROW(FaultPlan::parse("read_error#2:p=0.5", 1), util::ConfigError);
  EXPECT_THROW(FaultPlan::parse("read_error@", 1), util::ConfigError);
}

TEST(FaultPlanTest, KindPredicates) {
  EXPECT_TRUE(is_read_kind(FaultKind::kReadError));
  EXPECT_TRUE(is_read_kind(FaultKind::kShortRead));
  EXPECT_FALSE(is_read_kind(FaultKind::kTornWrite));
  EXPECT_FALSE(is_read_kind(FaultKind::kBitFlip));
  EXPECT_STREQ(fault_kind_name(FaultKind::kTruncate), "truncate");
}

// ---- FaultInjectingStageStore ----------------------------------------------

TEST(FaultStoreTest, ReadErrorThrowsTransientWithFullContext) {
  io::MemStageStore base;
  put(base, "k1_sorted", io::shard_name(3), "payload");
  FaultInjectingStageStore store(base,
                                 FaultPlan::parse("read_error@k1_sorted", 9));
  try {
    (void)store.open_read("k1_sorted", io::shard_name(3));
    FAIL() << "expected TransientIoError";
  } catch (const util::TransientIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 'k1_sorted'"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 'edges_00003.tsv'"), std::string::npos) << what;
    EXPECT_NE(what.find("(index 3)"), std::string::npos) << what;
    EXPECT_NE(what.find("[store mem]"), std::string::npos) << what;
    EXPECT_NE(what.find("injected read error"), std::string::npos) << what;
  }
  EXPECT_EQ(store.stats().total, 1u);
  EXPECT_EQ(store.stats().by_kind.at("read_error"), 1u);
}

TEST(FaultStoreTest, ShortReadServesPrefixThenThrows) {
  io::MemStageStore base;
  const std::string payload(1000, 'x');
  put(base, "s", "a", payload);
  FaultInjectingStageStore store(base, FaultPlan::parse("short_read", 11));
  auto reader = store.open_read("s", "a");
  const std::string_view first = reader->read_chunk();
  EXPECT_FALSE(first.empty());  // never a clean-EOF masquerade
  EXPECT_LT(first.size(), payload.size());
  EXPECT_THROW((void)reader->read_chunk(), util::TransientIoError);
}

TEST(FaultStoreTest, WriteErrorThrowsOnOpen) {
  io::MemStageStore base;
  FaultInjectingStageStore store(base, FaultPlan::parse("write_error", 5));
  EXPECT_THROW((void)store.open_write("s", "a"), util::TransientIoError);
  EXPECT_FALSE(base.exists("s") && !base.list("s").empty());
}

TEST(FaultStoreTest, TornWriteCommitsPrefixAndThrows) {
  io::MemStageStore base;
  FaultInjectingStageStore store(base, FaultPlan::parse("torn_write", 13));
  const std::string payload(4096, 'y');
  auto writer = store.open_write("s", "a");
  writer->write(payload);
  EXPECT_THROW(writer->close(), util::TransientIoError);
  // A strict prefix of the payload was committed below the failure.
  const std::string stored = get(base, "s", "a");
  EXPECT_LT(stored.size(), payload.size());
  EXPECT_EQ(stored, payload.substr(0, stored.size()));
}

TEST(FaultStoreTest, TruncateIsSilent) {
  io::MemStageStore base;
  FaultInjectingStageStore store(base, FaultPlan::parse("truncate", 17));
  const std::string payload(4096, 'z');
  put(store, "s", "a", payload);  // no throw — corruption is silent
  const std::string stored = get(base, "s", "a");
  EXPECT_LT(stored.size(), payload.size());
  EXPECT_EQ(stored, payload.substr(0, stored.size()));
}

TEST(FaultStoreTest, BitFlipKeepsSizeAndFlipsExactlyOneByte) {
  io::MemStageStore base;
  FaultInjectingStageStore store(base, FaultPlan::parse("bit_flip", 19));
  const std::string payload(512, 'q');
  put(store, "s", "a", payload);
  const std::string stored = get(base, "s", "a");
  ASSERT_EQ(stored.size(), payload.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (stored[i] != payload[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
}

TEST(FaultStoreTest, NthTriggerFiresOnExactlyThatOperation) {
  io::MemStageStore base;
  put(base, "s", "a", "x");
  put(base, "s", "b", "x");
  put(base, "s", "c", "x");
  FaultInjectingStageStore store(base, FaultPlan::parse("read_error#2", 23));
  EXPECT_NO_THROW((void)get(store, "s", "a"));
  EXPECT_THROW((void)store.open_read("s", "b"), util::TransientIoError);
  EXPECT_NO_THROW((void)get(store, "s", "c"));
  EXPECT_EQ(store.stats().total, 1u);
}

TEST(FaultStoreTest, MaxFiresCapsProbabilisticRules) {
  io::MemStageStore base;
  put(base, "s", "a", "x");
  FaultInjectingStageStore store(base,
                                 FaultPlan::parse("read_error:p=1.0*2", 29));
  EXPECT_THROW((void)store.open_read("s", "a"), util::TransientIoError);
  EXPECT_THROW((void)store.open_read("s", "a"), util::TransientIoError);
  EXPECT_NO_THROW((void)get(store, "s", "a"));  // cap reached
  EXPECT_EQ(store.stats().total, 2u);
}

TEST(FaultStoreTest, ProbabilisticTriggersAreSeedDeterministic) {
  const auto fired_ops = [](std::uint64_t seed) {
    io::MemStageStore base;
    put(base, "s", "a", "x");
    FaultInjectingStageStore store(
        base, FaultPlan::parse("read_error:p=0.5*1000", seed));
    std::set<int> fired;
    for (int op = 0; op < 64; ++op) {
      try {
        (void)get(store, "s", "a");
      } catch (const util::TransientIoError&) {
        fired.insert(op);
      }
    }
    return fired;
  };
  const std::set<int> a = fired_ops(42);
  EXPECT_EQ(a, fired_ops(42));     // reproducible
  EXPECT_NE(a, fired_ops(43));     // and actually seed-driven
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 64u);
}

TEST(FaultStoreTest, StageFilterLeavesOtherStagesAlone) {
  io::MemStageStore base;
  put(base, "k0_edges", "a", "x");
  put(base, "k1_sorted", "a", "x");
  FaultInjectingStageStore store(
      base, FaultPlan::parse("read_error@k1_sorted", 31));
  EXPECT_NO_THROW((void)get(store, "k0_edges", "a"));
  EXPECT_THROW((void)store.open_read("k1_sorted", "a"),
               util::TransientIoError);
}

// ---- RetryPolicy ------------------------------------------------------------

TEST(RetryPolicyTest, DisabledBelowTwoAttempts) {
  EXPECT_FALSE(RetryPolicy{}.enabled());
  RetryPolicy retry;
  retry.max_attempts = 3;
  EXPECT_TRUE(retry.enabled());
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithinJitterBand) {
  RetryPolicy retry;
  retry.max_attempts = 8;
  retry.base_delay_ms = 10.0;
  retry.max_delay_ms = 100.0;
  retry.seed = 77;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double nominal = std::min(10.0 * (1 << (attempt - 1)), 100.0);
    const double delay = retry.delay_ms(attempt);
    EXPECT_GE(delay, nominal * 0.5) << "attempt " << attempt;
    EXPECT_LT(delay, nominal) << "attempt " << attempt;
    EXPECT_DOUBLE_EQ(delay, retry.delay_ms(attempt));  // deterministic
  }
}

TEST(RetryPolicyTest, OnlyTransientIoErrorIsRetryable) {
  EXPECT_TRUE(is_retryable(util::TransientIoError("t")));
  EXPECT_FALSE(is_retryable(util::IoError("io")));
  EXPECT_FALSE(is_retryable(util::CorruptionError("c")));
  EXPECT_FALSE(is_retryable(util::ConfigError("cfg")));
  EXPECT_FALSE(is_retryable(std::runtime_error("r")));
}

// ---- ShardDigestStore / manifests ------------------------------------------

TEST(DigestStoreTest, RecordsAsWrittenBytesAndDigests) {
  io::MemStageStore base;
  ShardDigestStore digests(base);
  put(digests, "s", "b", "bravo");
  put(digests, "s", "a", "alpha!");
  const std::vector<ShardRecord> records = digests.written("s");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "a");  // shard-name order
  EXPECT_EQ(records[0].bytes, 6u);
  EXPECT_EQ(records[1].name, "b");
  EXPECT_EQ(records[1].bytes, 5u);
  ByteHash hash;
  hash.update("alpha!");
  EXPECT_EQ(records[0].digest, hash.digest());
}

TEST(DigestStoreTest, ClearStageDropsRecords) {
  io::MemStageStore base;
  ShardDigestStore digests(base);
  put(digests, "s", "a", "alpha");
  digests.clear_stage("s");
  EXPECT_TRUE(digests.written("s").empty());
  put(digests, "s", "a", "alpha");
  digests.remove_shard("s", "a");
  EXPECT_TRUE(digests.written("s").empty());
}

TEST(ManifestTest, JsonRoundTrips) {
  StageManifest manifest;
  manifest.stage = "k1_sorted";
  manifest.codec = "binary";
  manifest.config_fingerprint = 0xdeadbeefcafef00dULL;
  manifest.shards = {{"edges_00000.bin", 123, 0x1ULL},
                     {"edges_00001.bin", 0, 0xffffffffffffffffULL}};
  const StageManifest parsed = StageManifest::parse(manifest.json());
  EXPECT_EQ(parsed.stage, manifest.stage);
  EXPECT_EQ(parsed.codec, manifest.codec);
  EXPECT_EQ(parsed.config_fingerprint, manifest.config_fingerprint);
  EXPECT_EQ(parsed.shards, manifest.shards);
}

TEST(ManifestTest, ParseRejectsGarbage) {
  EXPECT_THROW(StageManifest::parse("not json"), util::IoError);
  EXPECT_THROW(StageManifest::parse("[]"), util::IoError);
  EXPECT_THROW(StageManifest::parse("{\"version\": 2}"), util::IoError);
}

TEST(CheckpointTest, CommitThenValidateSucceeds) {
  io::MemStageStore base;
  ShardDigestStore digests(base);
  CheckpointManager checkpoints(digests, digests, 0xabc, "tsv");
  put(digests, "k0_edges", io::shard_name(0), "1\t2\n");
  put(digests, "k0_edges", io::shard_name(1), "3\t4\n");
  checkpoints.commit("k0_edges");
  const ManifestCheck check = checkpoints.validate("k0_edges");
  EXPECT_TRUE(check.valid()) << check.reason;
}

TEST(CheckpointTest, CommitDetectsSilentCorruptionBelowDigestLayer) {
  io::MemStageStore base;
  FaultInjectingStageStore faulty(base,
                                  FaultPlan::parse("bit_flip@k0_edges", 3));
  ShardDigestStore digests(faulty);
  CheckpointManager checkpoints(digests, digests, 0xabc, "tsv");
  put(digests, "k0_edges", io::shard_name(0), std::string(256, 'e'));
  EXPECT_THROW(checkpoints.commit("k0_edges"), util::CorruptionError);
}

TEST(CheckpointTest, BitFlipStaysDetectableOnTheMappedReadPath) {
  // bit_flip mutates bytes on their way to the disk store, so the flipped
  // byte lives in the stored file. Read-back verification digests the
  // file's streamed chunks — the corruption must stay visible there.
  io::DirStageStore disk(testing::TempDir());
  const std::string stage = "ckpt_stream_bitflip";
  if (disk.exists(stage)) disk.remove(stage);
  FaultInjectingStageStore faulty(disk, FaultPlan::parse("bit_flip", 3));
  ShardDigestStore digests(faulty);
  CheckpointManager checkpoints(digests, digests, 0xabc, "tsv");
  put(digests, stage, io::shard_name(0), std::string(4096, 'e'));
  EXPECT_THROW(checkpoints.commit(stage), util::CorruptionError);
  disk.remove(stage);
}

TEST(CheckpointTest, ValidateFlagsPostCommitTampering) {
  io::MemStageStore base;
  ShardDigestStore digests(base);
  CheckpointManager checkpoints(digests, digests, 0xabc, "tsv");
  put(digests, "k0_edges", io::shard_name(0), "1\t2\n");
  checkpoints.commit("k0_edges");
  put(base, "k0_edges", io::shard_name(0), "9\t9\n");  // tamper after commit
  const ManifestCheck check = checkpoints.validate("k0_edges");
  EXPECT_EQ(check.status, ManifestStatus::kMismatch);
  EXPECT_NE(check.reason.find("edges_00000.tsv"), std::string::npos)
      << check.reason;
}

TEST(CheckpointTest, ValidateReportsMissingManifest) {
  io::MemStageStore base;
  ShardDigestStore digests(base);
  CheckpointManager checkpoints(digests, digests, 0xabc, "tsv");
  EXPECT_EQ(checkpoints.validate("k0_edges").status, ManifestStatus::kMissing);
}

TEST(CheckpointTest, ValidateRejectsOtherConfigOrCodec) {
  io::MemStageStore base;
  ShardDigestStore digests(base);
  CheckpointManager checkpoints(digests, digests, 0xabc, "tsv");
  put(digests, "k0_edges", io::shard_name(0), "1\t2\n");
  checkpoints.commit("k0_edges");
  CheckpointManager other_config(digests, digests, 0xdef, "tsv");
  EXPECT_EQ(other_config.validate("k0_edges").status,
            ManifestStatus::kMismatch);
  CheckpointManager other_codec(digests, digests, 0xabc, "binary");
  EXPECT_EQ(other_codec.validate("k0_edges").status, ManifestStatus::kMismatch);
}

TEST(CheckpointTest, InvalidateDropsTheManifest) {
  io::MemStageStore base;
  ShardDigestStore digests(base);
  CheckpointManager checkpoints(digests, digests, 0xabc, "tsv");
  put(digests, "k0_edges", io::shard_name(0), "1\t2\n");
  checkpoints.commit("k0_edges");
  checkpoints.invalidate("k0_edges");
  EXPECT_EQ(checkpoints.validate("k0_edges").status, ManifestStatus::kMissing);
  checkpoints.invalidate("k0_edges");  // idempotent
}

// ---- uniform error-context regression (io layer) ---------------------------

TEST(ShardContextTest, MissingShardMessagesNameStageShardIndexAndStore) {
  io::MemStageStore mem;
  put(mem, "k1_sorted", io::shard_name(1), "x");
  try {
    (void)mem.open_read("k1_sorted", io::shard_name(3));
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 'k1_sorted'"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 'edges_00003.tsv'"), std::string::npos) << what;
    EXPECT_NE(what.find("(index 3)"), std::string::npos) << what;
    EXPECT_NE(what.find("[store mem]"), std::string::npos) << what;
  }
}

TEST(ShardContextTest, DirStoreUsesTheSameShape) {
  io::DirStageStore dir(testing::TempDir());
  try {
    (void)dir.open_read("k0_edges", io::shard_name(0));
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 'k0_edges'"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 'edges_00000.tsv'"), std::string::npos) << what;
    EXPECT_NE(what.find("(index 0)"), std::string::npos) << what;
    EXPECT_NE(what.find("[store dir]"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace prpb::fault
