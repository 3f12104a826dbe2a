// Tests for src/sort: the radix sort (serial and over pools) against
// std::stable_sort, stability properties, the external sort, and the
// in-memory/external choice.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "rand/rng.hpp"
#include "sort/edge_sort.hpp"
#include "sort/external_sort.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/threadpool.hpp"

namespace prpb::sort {
namespace {

using gen::Edge;
using gen::EdgeList;

EdgeList random_edges(std::size_t count, std::uint64_t max_vertex,
                      std::uint64_t seed = 7) {
  rnd::Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back({rng.next_below(max_vertex), rng.next_below(max_vertex)});
  }
  return edges;
}

EdgeList stable_sorted(EdgeList edges, SortKey key) {
  std::stable_sort(edges.begin(), edges.end(),
                   [key](const Edge& a, const Edge& b) {
                     if (key == SortKey::kStart) return a.u < b.u;
                     return a.u != b.u ? a.u < b.u : a.v < b.v;
                   });
  return edges;
}

// ---- radix sort vs std::stable_sort across pools, keys, and inputs ----------

enum class Input : std::uint16_t {
  kRandom = 1,  ///< `count` uniform edges over 2^12 vertices (many ties)
  kSameStart,   ///< every start vertex equal: all u passes are skipped
  kHighBits,    ///< only byte 6 varies: the low passes are skipped
};

// Packed into 16 bytes with no padding, so gtest's byte dump of a case is
// deterministic.
struct SortCase {
  Input input;
  std::uint16_t threads;  ///< 0 = no pool
  SortKey key;
  std::size_t count;
};

EdgeList make_input(const SortCase& param) {
  EdgeList edges = random_edges(param.count, 1 << 12);
  for (auto& edge : edges) {
    if (param.input == Input::kSameStart) edge.u = 42;
    if (param.input == Input::kHighBits) {
      edge.u = (edge.u & 0xff) << 48;
      edge.v = (edge.v & 0xff) << 48;
    }
  }
  return edges;
}

class EngineTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(EngineTest, MatchesStableSortReference) {
  const auto& param = GetParam();
  const EdgeList input = make_input(param);
  EdgeList edges = input;
  if (param.threads == 0) {
    radix_sort(edges, param.key);
  } else {
    util::ThreadPool pool(param.threads);
    radix_sort(edges, param.key, &pool);
  }
  EXPECT_EQ(edges, stable_sorted(input, param.key));
}

std::string sort_case_name(
    const ::testing::TestParamInfo<SortCase>& info) {
  const SortCase& param = info.param;
  std::string name = "Radix";
  name += param.key == SortKey::kStart ? "Start" : "StartEnd";
  switch (param.input) {
    case Input::kRandom: name += "N" + std::to_string(param.count); break;
    case Input::kSameStart: name += "SameStart"; break;
    case Input::kHighBits: name += "HighBits"; break;
  }
  if (param.threads > 0) name += "Pool" + std::to_string(param.threads);
  return name;
}

std::vector<SortCase> sort_cases() {
  std::vector<SortCase> cases = {
      {Input::kRandom, 0, SortKey::kStartEnd, 2},
      {Input::kRandom, 0, SortKey::kStartEnd, 1000},
      {Input::kRandom, 0, SortKey::kStart, 1000},
  };
  for (const std::uint16_t threads : {0, 1, 3, 4}) {
    for (const SortKey key : {SortKey::kStartEnd, SortKey::kStart}) {
      cases.push_back({Input::kRandom, threads, key, 0});
      cases.push_back({Input::kRandom, threads, key, 1});
      cases.push_back({Input::kRandom, threads, key, 65536});
      cases.push_back({Input::kSameStart, threads, key, 65536});
      cases.push_back({Input::kHighBits, threads, key, 65536});
    }
  }
  // With a pool, the 65536-edge inputs split into one chunk per thread.
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::ValuesIn(sort_cases()), sort_case_name);

// ---- in-place key slots: pass-count parity ----------------------------------
// The keys ping-pong between the two halves of the edge array, so an odd
// pass count unpacks forward from the second half and an even one backward
// from the first. Sizes 0, 1, 2 and odd sizes (one and several chunks).

TEST(RadixInPlaceTest, OddAndEvenPassCountsMatchStableSort) {
  util::ThreadPool pool(3);
  // Ids below 2^bits: kStartEnd sorts 2·bits key bits, kStart sorts bits,
  // in ceil(width / 11) passes.
  for (const unsigned bits : {5u, 8u, 12u, 16u, 20u, 30u}) {
    for (const std::size_t count : {0u, 1u, 2u, 4097u, 65537u}) {
      const EdgeList input = random_edges(count, 1ULL << bits, bits + count);
      for (const SortKey key : {SortKey::kStartEnd, SortKey::kStart}) {
        for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
          EdgeList edges = input;
          radix_sort(edges, key, p);
          EXPECT_EQ(edges, stable_sorted(input, key))
              << "bits " << bits << " count " << count
              << (key == SortKey::kStart ? " kStart" : " kStartEnd")
              << (p == nullptr ? " serial" : " pool");
        }
      }
    }
  }
}

// ---- radix specifics ---------------------------------------------------------

TEST(RadixTest, StableOnStartKey) {
  // With kStart, equal-u edges must keep their input order.
  EdgeList edges = {{5, 9}, {5, 1}, {5, 4}, {2, 8}, {5, 0}};
  radix_sort(edges, SortKey::kStart);
  const EdgeList expected = {{2, 8}, {5, 9}, {5, 1}, {5, 4}, {5, 0}};
  EXPECT_EQ(edges, expected);
}

TEST(RadixTest, HandlesLargeValues) {
  EdgeList edges = {{~0ULL, 1}, {0, 2}, {1ULL << 60, 3}, {255, 4}};
  radix_sort(edges, SortKey::kStartEnd);
  EXPECT_TRUE(is_sorted_edges(edges, SortKey::kStartEnd));
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[3].u, ~0ULL);
}

TEST(RadixTest, AllEqualKeysPreserved) {
  EdgeList edges = {{7, 3}, {7, 1}, {7, 2}};
  radix_sort(edges, SortKey::kStart);  // stable: untouched order by v
  const EdgeList expected = {{7, 3}, {7, 1}, {7, 2}};
  EXPECT_EQ(edges, expected);
}

TEST(RadixTest, AlreadySorted) {
  EdgeList edges = {{1, 1}, {2, 2}, {3, 3}};
  radix_sort(edges);
  EXPECT_TRUE(is_sorted_edges(edges, SortKey::kStartEnd));
}

TEST(RadixTest, KroneckerGraphSorts) {
  gen::KroneckerParams params;
  params.scale = 12;
  EdgeList edges = gen::KroneckerGenerator(params).generate_all();
  radix_sort(edges);
  EXPECT_TRUE(is_sorted_edges(edges, SortKey::kStartEnd));
  EXPECT_EQ(edges.size(), 16u << 12);
}

// ---- packed keys: the varying bits of u and v share one 64-bit key ----------

/// Sorts `input` serially and over a three-thread pool under both keys and
/// compares each result with std::stable_sort.
void expect_packed_sort_matches_stable(const EdgeList& input) {
  util::ThreadPool pool(3);
  for (const auto key : {SortKey::kStartEnd, SortKey::kStart}) {
    const EdgeList expected = stable_sorted(input, key);
    for (util::ThreadPool* engine : {static_cast<util::ThreadPool*>(nullptr),
                                     &pool}) {
      EdgeList edges = input;
      radix_sort(edges, key, engine);
      EXPECT_EQ(edges, expected)
          << (key == SortKey::kStart ? "kStart" : "kStartEnd")
          << (engine != nullptr ? " pooled" : " serial");
    }
  }
}

/// Start vertices with ties: every other edge repeats an earlier start.
EdgeList edges_with_start_ties(std::size_t count, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  EdgeList edges(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges[i] = {i % 2 == 1 ? edges[rng.next_below(i)].u : rng.next(),
                rng.next()};
  }
  return edges;
}

TEST(RadixPackedKeyTest, SixtyFourBitKey) {
  // u varies over 40 bits and v over 24: the key is exactly 64 bits wide.
  EdgeList edges = edges_with_start_ties(20000, 31);
  for (auto& edge : edges) {
    edge.u &= (1ULL << 40) - 1;
    edge.v &= (1ULL << 24) - 1;
  }
  edges[0] = {0, 0};
  edges[1] = {(1ULL << 40) - 1, (1ULL << 24) - 1};
  expect_packed_sort_matches_stable(edges);
}

TEST(RadixPackedKeyTest, ConstantHighBitsRestored) {
  EdgeList edges = edges_with_start_ties(20000, 37);
  for (auto& edge : edges) {
    edge.u = (0xABCDULL << 48) | (edge.u & 0xfffff);
    edge.v = (1ULL << 63) | (edge.v & 0xfffff);
  }
  expect_packed_sort_matches_stable(edges);
}

TEST(RadixPackedKeyTest, ConstantStartFullWidthEnd) {
  // v' fills all 64 bits of the key and u' has none: the shift of u' by
  // bits(v') is a shift by 64.
  EdgeList edges(20000);
  rnd::Xoshiro256 rng(43);
  for (auto& edge : edges) edge = {0x1234, rng.next()};
  edges[0].v = 0;
  edges[1].v = ~0ULL;
  expect_packed_sort_matches_stable(edges);
}

// ---- radix sort over a pool: the partitioned passes -------------------------

struct RadixCase {
  const char* name;
  EdgeList edges;
};

std::vector<RadixCase> radix_cases() {
  std::vector<RadixCase> cases;
  cases.push_back({"Empty", {}});
  cases.push_back({"Single", {{5, 3}}});
  cases.push_back({"Uniform", random_edges(10000, 1 << 12)});
  cases.push_back({"Kronecker", [] {
                     gen::KroneckerParams params;
                     params.scale = 12;
                     return gen::KroneckerGenerator(params).generate_all();
                   }()});
  // Adversarial skew: every start vertex identical — the u passes are all
  // constant bytes, only the v passes move data.
  {
    EdgeList same_u = random_edges(5000, 1 << 20, 11);
    for (auto& e : same_u) e.u = 42;
    cases.push_back({"AllSameStart", std::move(same_u)});
  }
  // High bits only: exercises the varying-byte mask skipping the low
  // passes entirely.
  {
    EdgeList high = random_edges(5000, 1 << 8, 13);
    for (auto& e : high) {
      e.u <<= 48;
      e.v <<= 48;
    }
    cases.push_back({"HighBits", std::move(high)});
  }
  {
    EdgeList sorted = random_edges(5000, 1 << 12, 17);
    std::sort(sorted.begin(), sorted.end());
    cases.push_back({"PreSorted", sorted});
    std::reverse(sorted.begin(), sorted.end());
    cases.push_back({"Reversed", std::move(sorted)});
  }
  // Two-value keys with distinct payloads pin stability: equal keys must
  // keep input order.
  {
    EdgeList ties;
    for (std::uint64_t i = 0; i < 4096; ++i) ties.push_back({i % 2, i});
    cases.push_back({"StabilityTies", std::move(ties)});
  }
  return cases;
}

TEST(RadixPartitionTest, MatchesStableReferenceOnAllCases) {
  util::ThreadPool pool(4);
  for (const auto& test_case : radix_cases()) {
    for (const auto key : {SortKey::kStartEnd, SortKey::kStart}) {
      EdgeList edges = test_case.edges;
      radix_sort(edges, key, &pool);
      EXPECT_EQ(edges, stable_sorted(test_case.edges, key))
          << test_case.name
          << (key == SortKey::kStart ? " (kStart)" : " (kStartEnd)");
    }
  }
}

TEST(RadixPartitionTest, AgreesWithSerialRadixEngine) {
  util::ThreadPool pool(3);
  EdgeList a = random_edges(65536, 1 << 16, 23);
  EdgeList b = a;
  radix_sort(a, SortKey::kStartEnd, &pool);
  radix_sort(b);
  EXPECT_EQ(a, b);
}

TEST(RadixPartitionTest, SingleThreadPoolWorks) {
  util::ThreadPool pool(1);
  EdgeList edges = random_edges(10000, 1 << 10, 29);
  const EdgeList expected = stable_sorted(edges, SortKey::kStartEnd);
  radix_sort(edges, SortKey::kStartEnd, &pool);
  EXPECT_EQ(edges, expected);
}

// Kernel 1's output shards are byte-for-byte those of a stable comparison
// sort, however many chunks the pool split the passes into.
TEST(RadixPartitionTest, ReencodedShardsAreByteIdentical) {
  gen::KroneckerParams params;
  params.scale = 12;
  const EdgeList input = gen::KroneckerGenerator(params).generate_all();
  util::ThreadPool pool(4);

  EdgeList partitioned = input;
  radix_sort(partitioned, SortKey::kStartEnd, &pool);
  const EdgeList reference = stable_sorted(input, SortKey::kStartEnd);

  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  io::MemStageStore store;
  io::write_edge_list(store, "partitioned", partitioned, 4, codec);
  io::write_edge_list(store, "reference", reference, 4, codec);
  const auto shards = store.list("partitioned");
  ASSERT_EQ(shards, store.list("reference"));
  const auto read_bytes = [&store](const std::string& stage,
                                   const std::string& shard) {
    std::string bytes;
    for (auto reader = store.open_read(stage, shard);;) {
      const auto chunk = reader->read_chunk();
      if (chunk.empty()) break;
      bytes.append(chunk);
    }
    return bytes;
  };
  for (const auto& shard : shards) {
    EXPECT_EQ(read_bytes("partitioned", shard), read_bytes("reference", shard))
        << shard;
  }
}

// ---- is_sorted ----------------------------------------------------------------

TEST(IsSortedTest, ChecksSelectedKey) {
  const EdgeList by_u_only = {{1, 9}, {2, 3}, {2, 1}};
  EXPECT_TRUE(is_sorted_edges(by_u_only, SortKey::kStart));
  EXPECT_FALSE(is_sorted_edges(by_u_only, SortKey::kStartEnd));
}

// ---- in-memory vs external --------------------------------------------------

TEST(PolicyTest, SmallInputStaysInMemory) {
  EXPECT_FALSE(needs_external_sort(1000, 1 << 20));
}

TEST(PolicyTest, LargeInputGoesExternal) {
  EXPECT_TRUE(needs_external_sort(1'000'000, 1 << 20));
}

TEST(PolicyTest, ExactBoundaryIsInMemory) {
  // The radix sort needs the edge array plus an equal scratch array.
  const std::uint64_t edges = 1024;
  EXPECT_FALSE(needs_external_sort(edges, 2 * edges * sizeof(Edge)));
  EXPECT_TRUE(needs_external_sort(edges, 2 * edges * sizeof(Edge) - 1));
}

// ---- external sort ------------------------------------------------------------

/// Stages "in", "out" and "tmp" of a DirStageStore in a fresh directory.
struct DiskStages {
  util::TempDir work{"prpb-extsort"};
  io::DirStageStore store{work.path()};
};

const io::StageCodec& tsv() { return io::tsv_codec(io::Codec::kFast); }

ExternalSortConfig tsv_config() {
  ExternalSortConfig config;
  config.stage_codec = &tsv();
  return config;
}

class ExternalSortTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExternalSortTest, MatchesInMemorySort) {
  gen::KroneckerParams params;
  params.scale = 10;
  const gen::KroneckerGenerator generator(params);
  DiskStages disk;
  io::write_generated_edges(disk.store, "in", generator, 3, tsv());

  ExternalSortConfig config = tsv_config();
  config.memory_budget_bytes = GetParam();
  config.output_shards = 2;
  const auto stats =
      external_sort_stage(disk.store, "in", "out", "tmp", config);
  EXPECT_EQ(stats.edges, generator.num_edges());

  EdgeList expected = generator.generate_all();
  radix_sort(expected);
  EXPECT_EQ(io::read_all_edges(disk.store, "out", tsv()), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, ExternalSortTest,
    ::testing::Values(16 * 1024,        // many runs, cascaded merges
                      64 * 1024,        // several runs
                      64 * 1024 * 1024  // one run (degenerate case)
                      ));

TEST(ExternalSortTest, RunsOverMemStoreWithBinaryCodec) {
  // The store-based form must work over any StageStore with any stage
  // codec: spill runs and the sorted output all live in the mem store.
  gen::KroneckerParams params;
  params.scale = 10;
  const gen::KroneckerGenerator generator(params);
  io::MemStageStore store;
  io::write_generated_edges(store, "in", generator, 3,
                            io::binary_codec());

  ExternalSortConfig config;
  config.memory_budget_bytes = 16 * 1024;  // force spills
  config.output_shards = 2;
  config.stage_codec = &io::binary_codec();
  const auto stats = external_sort_stage(store, "in", "out", "tmp", config);
  EXPECT_EQ(stats.edges, generator.num_edges());
  EXPECT_GT(stats.initial_runs, 1u);
  EXPECT_GT(stats.spill_bytes, 0u);
  EXPECT_TRUE(store.list("tmp").empty());  // runs drained after the merge

  EdgeList expected = generator.generate_all();
  radix_sort(expected);
  EXPECT_EQ(io::read_all_edges(store, "out", io::binary_codec()), expected);
}

TEST(ExternalSortTest, SpillBytesAreEncodedBytes) {
  // Runs are binary-codec shards: spill_bytes counts what was written,
  // and the codec narrows scale-10 ids below the 16-byte in-memory edge.
  gen::KroneckerParams params;
  params.scale = 10;
  const gen::KroneckerGenerator generator(params);
  io::MemStageStore store;
  io::write_generated_edges(store, "in", generator, 3, io::binary_codec());

  ExternalSortConfig config;
  config.memory_budget_bytes = 16 * 1024;
  config.fan_in = 4;
  config.stage_codec = &io::binary_codec();
  const auto stats = external_sort_stage(store, "in", "out", "tmp", config);
  ASSERT_GT(stats.merge_passes, 1u);
  // Every pass but the final merge wrote each edge to a spill run once.
  const std::uint64_t spilled = stats.edges * stats.merge_passes;
  EXPECT_GT(stats.spill_bytes, 0u);
  EXPECT_LT(stats.spill_bytes, spilled * sizeof(gen::Edge));
}

TEST(ExternalSortTest, TinyFanInForcesCascades) {
  gen::KroneckerParams params;
  params.scale = 9;
  const gen::KroneckerGenerator generator(params);
  DiskStages disk;
  io::write_generated_edges(disk.store, "in", generator, 1, tsv());

  ExternalSortConfig config = tsv_config();
  config.memory_budget_bytes = 32 * 1024;
  config.fan_in = 2;
  const auto stats =
      external_sort_stage(disk.store, "in", "out", "tmp", config);
  EXPECT_GT(stats.initial_runs, 2u);
  EXPECT_GT(stats.merge_passes, 1u);

  EdgeList expected = generator.generate_all();
  radix_sort(expected);
  EXPECT_EQ(io::read_all_edges(disk.store, "out", tsv()), expected);
}

TEST(ExternalSortTest, CleansUpSpillFiles) {
  gen::KroneckerParams params;
  params.scale = 8;
  const gen::KroneckerGenerator generator(params);
  DiskStages disk;
  io::write_generated_edges(disk.store, "in", generator, 1, tsv());

  ExternalSortConfig config = tsv_config();
  config.memory_budget_bytes = 32 * 1024;
  external_sort_stage(disk.store, "in", "out", "tmp", config);
  EXPECT_TRUE(util::list_files_sorted(disk.work.sub("tmp")).empty());
}

TEST(ExternalSortTest, EmptyInput) {
  DiskStages disk;
  disk.store.clear_stage("in");
  const auto stats =
      external_sort_stage(disk.store, "in", "out", "tmp", tsv_config());
  EXPECT_EQ(stats.edges, 0u);
  EXPECT_EQ(io::count_edges(disk.store, "out", tsv()), 0u);
}

TEST(ExternalSortTest, RequestedShardCountAlwaysProduced) {
  gen::KroneckerParams params;
  params.scale = 8;
  const gen::KroneckerGenerator generator(params);
  DiskStages disk;
  io::write_generated_edges(disk.store, "in", generator, 1, tsv());

  ExternalSortConfig config = tsv_config();
  config.output_shards = 5;
  external_sort_stage(disk.store, "in", "out", "tmp", config);
  EXPECT_EQ(util::list_files_sorted(disk.work.sub("out")).size(), 5u);
}

TEST(ExternalSortTest, StartOnlyKeyKeepsRunOrderOnTies) {
  // With SortKey::kStart the merge must still produce u-sorted output.
  DiskStages disk;
  io::write_edge_list(disk.store, "in", random_edges(5000, 16), 2, tsv());
  ExternalSortConfig config = tsv_config();
  config.memory_budget_bytes = 16 * 1024;
  config.key = SortKey::kStart;
  external_sort_stage(disk.store, "in", "out", "tmp", config);
  const auto sorted = io::read_all_edges(disk.store, "out", tsv());
  EXPECT_TRUE(is_sorted_edges(sorted, SortKey::kStart));
  EXPECT_EQ(sorted.size(), 5000u);
}

TEST(ExternalSortTest, InvalidConfigThrows) {
  ExternalSortConfig config = tsv_config();
  config.fan_in = 1;
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = tsv_config();
  config.memory_budget_bytes = 100;
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = tsv_config();
  config.output_shards = 0;
  EXPECT_THROW(config.validate(), util::ConfigError);
  EXPECT_THROW(ExternalSortConfig{}.validate(), util::ConfigError);  // codec
}

}  // namespace
}  // namespace prpb::sort
