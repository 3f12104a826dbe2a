// Tests for the StageStore abstraction (src/io/stage_store.*): dir/mem
// behavioral parity, the shard-accounting decorator (counts always, spans
// and latency histograms when traced), and the cross-backend
// guarantee that swapping storage never changes pipeline results.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "io/file_stream.hpp"
#include "io/stage_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace prpb::io {
namespace {

TEST(ShardNameTest, FixedWidthAndSorted) {
  EXPECT_EQ(shard_name(0), "edges_00000.tsv");
  EXPECT_EQ(shard_name(42), "edges_00042.tsv");
  EXPECT_EQ(shard_name(99999), "edges_99999.tsv");
  EXPECT_LT(shard_name(9), shard_name(10));  // lexicographic == numeric
}

/// Both store kinds must satisfy the same contract.
class StoreContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "dir") {
      dir_.emplace("prpb-store");
      store_ = std::make_unique<DirStageStore>(dir_->path());
    } else {
      store_ = std::make_unique<MemStageStore>();
    }
  }

  void put(const std::string& stage, const std::string& shard,
           const std::string& data) {
    const auto writer = store_->open_write(stage, shard);
    writer->write(data);
    writer->close();
  }

  std::string get(const std::string& stage, const std::string& shard) {
    const auto reader = store_->open_read(stage, shard);
    std::string out;
    for (;;) {
      const auto chunk = reader->read_chunk();
      if (chunk.empty()) break;
      out.append(chunk);
    }
    return out;
  }

  std::optional<util::TempDir> dir_;
  std::unique_ptr<StageStore> store_;
};

TEST_P(StoreContractTest, KindMatchesParam) {
  EXPECT_EQ(store_->kind(), GetParam());
}

TEST_P(StoreContractTest, WriteReadRoundTrip) {
  put("s", shard_name(0), "1\t2\n3\t4\n");
  EXPECT_EQ(get("s", shard_name(0)), "1\t2\n3\t4\n");
}

TEST_P(StoreContractTest, OpenWriteTruncates) {
  put("s", shard_name(0), "old content that is longer\n");
  put("s", shard_name(0), "new\n");
  EXPECT_EQ(get("s", shard_name(0)), "new\n");
}

TEST_P(StoreContractTest, ListIsSortedAndComplete) {
  put("s", shard_name(2), "c\n");
  put("s", shard_name(0), "a\n");
  put("s", shard_name(1), "b\n");
  const auto shards = store_->list("s");
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], shard_name(0));
  EXPECT_EQ(shards[1], shard_name(1));
  EXPECT_EQ(shards[2], shard_name(2));
}

TEST_P(StoreContractTest, ListMissingStageThrows) {
  EXPECT_THROW(store_->list("nope"), util::IoError);
}

TEST_P(StoreContractTest, ReadMissingShardThrows) {
  put("s", shard_name(0), "x\n");
  EXPECT_THROW(store_->open_read("s", shard_name(7)), util::IoError);
  EXPECT_THROW(store_->open_read("nope", shard_name(0)), util::IoError);
}

TEST_P(StoreContractTest, ExistsAndRemove) {
  EXPECT_FALSE(store_->exists("s"));
  put("s", shard_name(0), "x\n");
  EXPECT_TRUE(store_->exists("s"));
  store_->remove("s");
  EXPECT_FALSE(store_->exists("s"));
  store_->remove("s");  // removing an absent stage is a no-op
}

TEST_P(StoreContractTest, ClearStageDropsShardsKeepsStage) {
  put("s", shard_name(0), "x\n");
  put("s", shard_name(1), "y\n");
  store_->clear_stage("s");
  EXPECT_TRUE(store_->exists("s"));
  EXPECT_TRUE(store_->list("s").empty());
  store_->clear_stage("fresh");  // also creates
  EXPECT_TRUE(store_->exists("fresh"));
}

TEST_P(StoreContractTest, StageBytesSumsShards) {
  EXPECT_EQ(store_->stage_bytes("s"), 0u);
  put("s", shard_name(0), "12345");
  put("s", shard_name(1), "678");
  EXPECT_EQ(store_->stage_bytes("s"), 8u);
}

TEST_P(StoreContractTest, RemoveShardDropsOnlyThatShard) {
  put("s", shard_name(0), "a\n");
  put("s", shard_name(1), "b\n");
  store_->remove_shard("s", shard_name(0));
  const auto shards = store_->list("s");
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], shard_name(1));
  store_->remove_shard("s", shard_name(0));  // absent shard is a no-op
}

TEST_P(StoreContractTest, BytesWrittenReported) {
  const auto writer = store_->open_write("s", shard_name(0));
  writer->write("hello\n");
  writer->close();
  EXPECT_EQ(writer->bytes_written(), 6u);
}

INSTANTIATE_TEST_SUITE_P(DirAndMem, StoreContractTest,
                         ::testing::Values("dir", "mem"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(DirStageStoreTest, DotRootResolvesStagesAsPaths) {
  // The interpreter's no-store fallback: rooted at ".", an absolute stage
  // name is the stage's directory.
  util::TempDir dir("prpb-store");
  DirStageStore store(".");
  const std::string stage = (dir.path() / "stage").string();
  const auto writer = store.open_write(stage, shard_name(0));
  writer->write("1\t2\n");
  writer->close();
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "stage" /
                                      shard_name(0)));
  EXPECT_EQ(store.list(stage), std::vector<std::string>{shard_name(0)});
}

TEST(DirStageStoreTest, RootedStoreExposesRootDir) {
  util::TempDir dir("prpb-store");
  DirStageStore store(dir.path());
  ASSERT_NE(store.root_dir(), nullptr);
  EXPECT_EQ(*store.root_dir(), dir.path());
}

TEST(MemStageStoreTest, ReaderSurvivesRemove) {
  // A reader opened before remove() must keep serving its snapshot (the
  // runner can clear stages while metrics readers drain).
  MemStageStore store;
  const auto writer = store.open_write("s", shard_name(0));
  writer->write("payload\n");
  writer->close();
  const auto reader = store.open_read("s", shard_name(0));
  store.remove("s");
  EXPECT_EQ(std::string(reader->read_chunk()), "payload\n");
}

TEST(CountingStageStoreTest, CountsReadsAndWrites) {
  MemStageStore inner;
  CountingStageStore store(inner);
  const auto writer = store.open_write("s", shard_name(0));
  writer->write("0123456789");
  writer->close();
  StageIoCounters after_write = store.snapshot();
  EXPECT_EQ(after_write.bytes_written, 10u);
  EXPECT_EQ(after_write.files_written, 1u);
  EXPECT_EQ(after_write.bytes_read, 0u);

  const auto reader = store.open_read("s", shard_name(0));
  while (!reader->read_chunk().empty()) {
  }
  const StageIoCounters delta = store.snapshot() - after_write;
  EXPECT_EQ(delta.bytes_read, 10u);
  EXPECT_EQ(delta.files_read, 1u);
  EXPECT_EQ(delta.bytes_written, 0u);
}

TEST(CountingStageStoreTest, ForwardsKindAndRoot) {
  util::TempDir dir("prpb-store");
  DirStageStore inner(dir.path());
  CountingStageStore store(inner);
  EXPECT_EQ(store.kind(), "dir");
  ASSERT_NE(store.root_dir(), nullptr);
  EXPECT_EQ(*store.root_dir(), dir.path());
}

/// A traced CountingStageStore over a memory store, plus what it recorded.
struct TracedCounting {
  MemStageStore inner;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  CountingStageStore store{inner, obs::Hooks{&recorder, &registry}};

  void put(const std::string& shard, const std::string& data) {
    const auto writer = store.open_write("s", shard);
    writer->write(data);
    writer->close();
  }

  /// Every recorded span as {name, parsed args}.
  [[nodiscard]] std::vector<std::pair<std::string, util::JsonValue>> spans()
      const {
    std::vector<std::pair<std::string, util::JsonValue>> out;
    for (const obs::TraceEvent& event : recorder.events()) {
      out.emplace_back(event.name, util::JsonValue::parse(event.args));
    }
    return out;
  }
};

TEST(CountingStageStoreTest, TracedShardsBecomeSpansWithStageShardAndBytes) {
  TracedCounting traced;
  traced.put(shard_name(0), "0123456789");
  {
    const auto reader = traced.store.open_read("s", shard_name(0));
    while (!reader->read_chunk().empty()) {
    }
  }
  const auto spans = traced.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].first, "store/write_shard");
  EXPECT_EQ(spans[1].first, "store/read_shard");
  for (const auto& [name, args] : spans) {
    EXPECT_EQ(args.at("stage").string(), "s") << name;
    EXPECT_EQ(args.at("shard").string(), shard_name(0)) << name;
    EXPECT_EQ(args.at("bytes").number(), 10.0) << name;
  }
  const auto snapshot = traced.registry.snapshot();
  EXPECT_EQ(snapshot.histograms.at("store/shard_write_ms").count, 1u);
  EXPECT_EQ(snapshot.histograms.at("store/shard_read_ms").count, 1u);
}

TEST(CountingStageStoreTest, ChunkAndViewPathsCountBytesOnce) {
  TracedCounting traced;
  const std::string payload(2 * kDefaultBufferBytes + 7, 'x');
  traced.put("chunked", payload);
  traced.put("viewed", payload);
  traced.put("mixed", payload);
  const StageIoCounters before = traced.store.snapshot();
  {
    const auto reader = traced.store.open_read("s", "chunked");
    while (!reader->read_chunk().empty()) {
    }
  }
  EXPECT_EQ(traced.store.snapshot().bytes_read - before.bytes_read,
            payload.size());
  {
    const auto view = traced.store.open_read("s", "viewed")->view();
    EXPECT_EQ(view->size(), payload.size());
  }
  EXPECT_EQ(traced.store.snapshot().bytes_read - before.bytes_read,
            2 * payload.size());
  {
    // A partial chunked read, then the remainder as a view.
    const auto reader = traced.store.open_read("s", "mixed");
    EXPECT_EQ(reader->read_chunk().size(), kDefaultBufferBytes);
    EXPECT_EQ(reader->view()->size(), payload.size() - kDefaultBufferBytes);
  }
  const StageIoCounters delta = traced.store.snapshot() - before;
  EXPECT_EQ(delta.bytes_read, 3 * payload.size());
  EXPECT_EQ(delta.files_read, 3u);

  std::map<std::string, double> span_bytes;
  for (const auto& [name, args] : traced.spans()) {
    if (name == "store/read_shard") {
      span_bytes[args.at("shard").string()] += args.at("bytes").number();
    }
  }
  const auto size = static_cast<double>(payload.size());
  EXPECT_EQ(span_bytes, (std::map<std::string, double>{
                            {"chunked", size}, {"mixed", size},
                            {"viewed", size}}));
}

TEST(CountingStageStoreTest, WriterDroppedWithoutCloseIsCountedAndSpannedOnce) {
  TracedCounting traced;
  {
    const auto writer = traced.store.open_write("s", shard_name(0));
    writer->write("abandoned");
  }
  const StageIoCounters counters = traced.store.snapshot();
  EXPECT_EQ(counters.bytes_written, 9u);
  EXPECT_EQ(counters.files_written, 1u);
  const auto spans = traced.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, "store/write_shard");
  EXPECT_EQ(spans[0].second.at("bytes").number(), 9.0);
  EXPECT_EQ(traced.registry.snapshot().histograms.at("store/shard_write_ms")
                .count,
            1u);
}

TEST(CountingStageStoreTest, MetricsWithoutLiveTraceOnlyCount) {
  MemStageStore inner;
  obs::TraceRecorder recorder(false);
  obs::MetricsRegistry registry;
  CountingStageStore store(inner, obs::Hooks{&recorder, &registry});
  {
    const auto writer = store.open_write("s", shard_name(0));
    writer->write("0123456789");
    writer->close();
  }
  {
    const auto view = store.open_read("s", shard_name(0))->view();
  }
  const StageIoCounters counters = store.snapshot();
  EXPECT_EQ(counters.bytes_written, 10u);
  EXPECT_EQ(counters.bytes_read, 10u);
  EXPECT_EQ(counters.files_written, 1u);
  EXPECT_EQ(counters.files_read, 1u);
  EXPECT_TRUE(registry.snapshot().histograms.empty());
  EXPECT_EQ(recorder.event_count(), 0u);
}

// ---- cross-backend storage parity ------------------------------------------

class StorageParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StorageParityTest, MemAndDirProduceIdenticalStagesAndRanks) {
  core::PipelineConfig config;
  config.scale = 8;
  config.num_files = 2;

  util::TempDir work("prpb-parity");
  config.work_dir = work.path();
  DirStageStore dir_store(work.path());
  MemStageStore mem_store;

  const auto backend = core::make_backend(GetParam());
  core::RunOptions options;
  options.store = &dir_store;
  const core::PipelineResult on_dir =
      core::run_pipeline(config, *backend, options);
  options.store = &mem_store;
  config.storage = "mem";
  const core::PipelineResult in_mem =
      core::run_pipeline(config, *backend, options);

  // Identical stage checksums for both materialized stages...
  for (const char* stage : {core::stages::kStage0, core::stages::kStage1}) {
    const io::StageCodec& codec = core::make_stage_codec(config);
    const core::StageChecksum d = core::stage_checksum(dir_store, stage, codec);
    const core::StageChecksum m = core::stage_checksum(mem_store, stage, codec);
    EXPECT_EQ(d.multiset, m.multiset) << stage;
    EXPECT_EQ(d.sequence, m.sequence) << stage;
    EXPECT_EQ(d.edges, m.edges) << stage;
  }
  // ... and identical (fp-tolerant) kernel-3 ranks.
  EXPECT_LT(core::normalized_difference(on_dir.ranks, in_mem.ranks), 1e-12);
  EXPECT_EQ(on_dir.storage, "dir");
  EXPECT_EQ(in_mem.storage, "mem");
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StorageParityTest,
                         ::testing::Values("native", "parallel", "graphblas",
                                           "arraylang", "dataframe"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

// ---- cross-backend codec x storage parity -----------------------------------

class CodecParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecParityTest, EveryCodecAndStoreProducesIdenticalResults) {
  // Every cell of {tsv, binary} x {dir, mem} must decode to the same stage
  // record sequences (checksums are over decoded records, so they compare
  // across encodings) and produce bitwise-identical ranks.
  struct Cell {
    std::string label;
    core::StageChecksum s0;
    core::StageChecksum s1;
    std::vector<double> ranks;
  };
  std::vector<Cell> cells;
  const auto backend = core::make_backend(GetParam());
  for (const std::string format : {"tsv", "binary"}) {
    for (const std::string storage : {"dir", "mem"}) {
      core::PipelineConfig config;
      config.scale = 8;
      config.num_files = 2;
      config.stage_format = format;
      config.storage = storage;
      util::TempDir work("prpb-codec-parity");
      config.work_dir = work.path();
      std::unique_ptr<StageStore> store;
      if (storage == "dir") {
        store = std::make_unique<DirStageStore>(work.path());
      } else {
        store = std::make_unique<MemStageStore>();
      }
      core::RunOptions options;
      options.store = store.get();
      const core::PipelineResult result =
          core::run_pipeline(config, *backend, options);
      EXPECT_EQ(result.stage_format, format);
      EXPECT_EQ(result.storage, storage);
      const StageCodec& codec = core::make_stage_codec(config);
      cells.push_back(Cell{
          format + "/" + storage,
          core::stage_checksum(*store, core::stages::kStage0, codec),
          core::stage_checksum(*store, core::stages::kStage1, codec),
          result.ranks});
    }
  }
  ASSERT_EQ(cells.size(), 4u);
  const Cell& base = cells.front();
  EXPECT_GT(base.s0.edges, 0u);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    EXPECT_EQ(cell.s0.multiset, base.s0.multiset) << cell.label;
    EXPECT_EQ(cell.s0.sequence, base.s0.sequence) << cell.label;
    EXPECT_EQ(cell.s0.edges, base.s0.edges) << cell.label;
    EXPECT_EQ(cell.s1.multiset, base.s1.multiset) << cell.label;
    EXPECT_EQ(cell.s1.sequence, base.s1.sequence) << cell.label;
    EXPECT_EQ(cell.s1.edges, base.s1.edges) << cell.label;
    EXPECT_EQ(cell.ranks, base.ranks) << cell.label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CodecParityTest,
                         ::testing::Values("native", "parallel", "graphblas",
                                           "arraylang", "dataframe"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace prpb::io
