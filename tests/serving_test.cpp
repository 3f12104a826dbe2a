// Query-exactness suite for the rank server (ISSUE 10, DESIGN.md §13).
//
// Pins the serving layer to the pipeline's own numbers: topk must agree
// with a full sort of the golden rank vector, rank/neighbors with direct
// CSR lookups, and a full-restart personalized PageRank at the configured
// iteration count must reproduce the committed kernel-3 rank digest bit
// for bit — on every backend, through the service API and through the
// wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "io/file_stream.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

#ifndef PRPB_TEST_DATA_DIR
#error "PRPB_TEST_DATA_DIR must point at tests/data"
#endif

namespace prpb::serve {
namespace {

constexpr const char* kGoldenPath = PRPB_TEST_DATA_DIR "/golden_checksums.json";

std::string golden_rank_digest(int scale) {
  const util::JsonValue doc =
      util::JsonValue::parse(io::read_file(kGoldenPath));
  const util::JsonValue* entry = doc.find("scale_" + std::to_string(scale));
  if (entry == nullptr) return {};
  return entry->at("rank_digest").string();
}

/// The pipeline run behind every test: the golden config (two shards,
/// in-memory store), keeping a copy of the matrix and ranks next to
/// the service so tests can compare against the raw data.
struct Loaded {
  std::unique_ptr<RankService> service;
  sparse::CsrMatrix matrix;  ///< copy for direct lookups
  std::vector<double> ranks;
};

Loaded load(int scale, const std::string& backend_name = "native") {
  core::PipelineConfig config;
  config.scale = scale;
  config.num_files = 2;
  config.storage = "mem";
  const auto backend = core::make_backend(backend_name);
  core::PipelineResult result =
      core::run_pipeline(config, *backend, core::RunOptions{});
  Loaded loaded;
  loaded.matrix = result.matrix;
  loaded.ranks = result.ranks;
  ServiceOptions options;
  options.iterations = config.iterations;
  options.damping = config.damping;
  options.seed = config.seed;
  loaded.service = std::make_unique<RankService>(
      std::move(result.matrix), std::move(result.ranks), options);
  return loaded;
}

// ---- topk vs full sort over scales 8..12 -----------------------------------

class ServingTopkTest : public ::testing::TestWithParam<int> {};

TEST_P(ServingTopkTest, AgreesWithFullSortOfRankVector) {
  const int scale = GetParam();
  const Loaded loaded = load(scale);
  const std::uint64_t n = loaded.service->vertices();

  // The reference order: rank descending, vertex-id ascending on ties.
  std::vector<std::uint64_t> expected(n);
  for (std::uint64_t v = 0; v < n; ++v) expected[v] = v;
  std::sort(expected.begin(), expected.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (loaded.ranks[a] != loaded.ranks[b]) {
                return loaded.ranks[a] > loaded.ranks[b];
              }
              return a < b;
            });

  for (const std::uint32_t k :
       {std::uint32_t{1}, std::uint32_t{17}, static_cast<std::uint32_t>(n)}) {
    const std::vector<RankEntry> top = loaded.service->topk(k);
    ASSERT_EQ(top.size(), std::min<std::uint64_t>(k, n)) << "k=" << k;
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].vertex, expected[i]) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].rank, loaded.ranks[expected[i]]);
    }
  }
  // Oversized k clamps to n.
  EXPECT_EQ(loaded.service->topk(static_cast<std::uint32_t>(n) + 100).size(),
            n);
}

INSTANTIATE_TEST_SUITE_P(Scales, ServingTopkTest,
                         ::testing::Values(8, 9, 10, 11, 12),
                         [](const ::testing::TestParamInfo<int>& scale) {
                           return "scale_" + std::to_string(scale.param);
                         });

// ---- rank / neighbors vs direct CSR lookups --------------------------------

TEST(ServingLookupTest, RankMatchesVectorForEveryVertex) {
  const Loaded loaded = load(10);
  for (std::uint64_t v = 0; v < loaded.service->vertices(); ++v) {
    EXPECT_EQ(loaded.service->rank(v), loaded.ranks[v]) << "v=" << v;
  }
}

TEST(ServingLookupTest, NeighborsMatchCsrRowWeightedByRank) {
  const Loaded loaded = load(10);
  for (std::uint64_t v = 0; v < loaded.service->vertices(); ++v) {
    const std::vector<RankEntry> entries = loaded.service->neighbors(v);
    const std::uint64_t begin = loaded.matrix.row_ptr()[v];
    const std::uint64_t end = loaded.matrix.row_ptr()[v + 1];
    ASSERT_EQ(entries.size(), end - begin) << "v=" << v;
    for (std::uint64_t i = begin; i < end; ++i) {
      const RankEntry& entry = entries[i - begin];
      const std::uint64_t u = loaded.matrix.col_idx()[i];
      EXPECT_EQ(entry.vertex, u);
      EXPECT_EQ(entry.rank, loaded.matrix.values()[i] * loaded.ranks[u]);
    }
  }
}

// ---- ppr: full restart set reproduces golden kernel-3 ranks ----------------

class ServingPprBackendTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingPprBackendTest, FullRestartPprReproducesGoldenDigest) {
  const std::string golden = golden_rank_digest(8);
  ASSERT_FALSE(golden.empty()) << "no scale_8 entry in " << kGoldenPath;
  const Loaded loaded = load(8, GetParam());

  PprRequest full;
  full.iterations = 20;
  const PprResult result = loaded.service->ppr(full);
  EXPECT_EQ(core::digest_hex(result.digest), golden) << GetParam();
  EXPECT_EQ(result.iterations_run, 20u);

  // The ranks themselves — not just the digest — must match kernel 3's.
  // ppr() recomputes with the reference (native) update order, so against
  // the native backend the values are bit-identical; the other backends
  // are pinned by the quantized rank_digest (their summation order may
  // differ in the last ulp, which the 1e-9 digest quantum absorbs).
  PprRequest with_top = full;
  with_top.topk = 8;
  const PprResult top = loaded.service->ppr(with_top);
  const std::vector<RankEntry> expected = loaded.service->topk(8);
  ASSERT_EQ(top.top.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(top.top[i].vertex, expected[i].vertex) << GetParam();
    if (GetParam() == "native") {
      EXPECT_EQ(top.top[i].rank, expected[i].rank);
    } else {
      EXPECT_NEAR(top.top[i].rank, expected[i].rank, 1e-12) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ServingPprBackendTest,
    ::testing::Values("native", "parallel", "graphblas", "arraylang",
                      "dataframe"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

class ServingPprScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(ServingPprScaleTest, FullRestartPprReproducesGoldenDigest) {
  const int scale = GetParam();
  const std::string golden = golden_rank_digest(scale);
  ASSERT_FALSE(golden.empty());
  const Loaded loaded = load(scale);
  PprRequest full;
  full.iterations = 20;
  EXPECT_EQ(core::digest_hex(loaded.service->ppr(full).digest), golden);
}

INSTANTIATE_TEST_SUITE_P(Scales, ServingPprScaleTest,
                         ::testing::Values(9, 10, 11, 12),
                         [](const ::testing::TestParamInfo<int>& scale) {
                           return "scale_" + std::to_string(scale.param);
                         });

TEST(ServingPprTest, ExplicitFullSetAndEmptyShorthandAgree) {
  const Loaded loaded = load(8);
  PprRequest shorthand;
  shorthand.iterations = 5;
  PprRequest explicit_full;
  explicit_full.iterations = 5;
  for (std::uint64_t v = 0; v < loaded.service->vertices(); ++v) {
    explicit_full.restart.push_back(v);
  }
  EXPECT_EQ(loaded.service->ppr(shorthand).digest,
            loaded.service->ppr(explicit_full).digest);
}

TEST(ServingPprTest, DuplicateRestartIdsCollapse) {
  const Loaded loaded = load(8);
  PprRequest unique;
  unique.iterations = 10;
  unique.restart = {3, 5, 9};
  PprRequest duplicated;
  duplicated.iterations = 10;
  duplicated.restart = {5, 3, 9, 5, 3, 3};
  EXPECT_EQ(loaded.service->ppr(unique).digest,
            loaded.service->ppr(duplicated).digest);
}

TEST(ServingPprTest, SubsetRestartDiffersFromFullAndEpsilonStopsEarly) {
  const Loaded loaded = load(8);
  PprRequest subset;
  subset.iterations = 20;
  subset.restart = {1, 2, 3};
  PprRequest full;
  full.iterations = 20;
  EXPECT_NE(loaded.service->ppr(subset).digest,
            loaded.service->ppr(full).digest);

  PprRequest lax = full;
  lax.epsilon = 1e9;  // any first residual beats this
  const PprResult early = loaded.service->ppr(lax);
  EXPECT_EQ(early.iterations_run, 1u);
  EXPECT_GT(early.residual, 0.0);
}

// ---- service construction and error mapping --------------------------------

TEST(ServingServiceTest, RejectsMismatchedRanksAndBadOptions) {
  core::PipelineConfig config;
  config.scale = 8;
  config.num_files = 2;
  config.storage = "mem";
  const auto backend = core::make_backend("native");
  core::PipelineResult result =
      core::run_pipeline(config, *backend, core::RunOptions{});

  std::vector<double> short_ranks(result.ranks.begin(),
                                  result.ranks.end() - 1);
  EXPECT_THROW(RankService(result.matrix, short_ranks, ServiceOptions{}),
               util::ConfigError);
  ServiceOptions bad_damping;
  bad_damping.damping = 1.5;
  EXPECT_THROW(RankService(result.matrix, result.ranks, bad_damping),
               util::ConfigError);
}

TEST(ServingServiceTest, HandleMapsUnknownVertexToTypedError) {
  const Loaded loaded = load(8);
  Request request;
  request.id = 7;
  request.opcode = Opcode::kRank;
  request.vertex = loaded.service->vertices();  // one past the end
  const Response response =
      decode_response(loaded.service->handle(request));
  EXPECT_EQ(response.id, 7u);
  EXPECT_EQ(response.status, Status::kUnknownVertex);
  EXPECT_FALSE(status_retryable(response.status));

  Request ppr_request;
  ppr_request.id = 8;
  ppr_request.opcode = Opcode::kPpr;
  ppr_request.ppr.iterations = 1;
  ppr_request.ppr.restart = {0, loaded.service->vertices() + 5};
  const Response ppr_response =
      decode_response(loaded.service->handle(ppr_request));
  EXPECT_EQ(ppr_response.status, Status::kUnknownVertex);
}

// ---- the same answers through the wire -------------------------------------

TEST(ServingSocketTest, QueriesThroughTheWireMatchTheService) {
  const std::string golden = golden_rank_digest(8);
  const Loaded loaded = load(8);
  RankServer server(*loaded.service, ServerOptions{});
  server.start();
  RankClient client(server.port());

  const Response info = client.info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.info.vertices, loaded.service->vertices());
  EXPECT_EQ(info.info.nnz, loaded.service->nnz());
  EXPECT_EQ(info.info.iterations, 20u);
  EXPECT_EQ(info.info.damping, 0.85);

  EXPECT_TRUE(client.ping().ok());

  const Response top = client.topk(9);
  ASSERT_TRUE(top.ok());
  const std::vector<RankEntry> expected = loaded.service->topk(9);
  ASSERT_EQ(top.entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(top.entries[i].vertex, expected[i].vertex);
    EXPECT_EQ(top.entries[i].rank, expected[i].rank);
  }

  const Response rank = client.rank(3);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank.rank, loaded.service->rank(3));

  const Response neighbors = client.neighbors(3);
  ASSERT_TRUE(neighbors.ok());
  const std::vector<RankEntry> row = loaded.service->neighbors(3);
  ASSERT_EQ(neighbors.entries.size(), row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(neighbors.entries[i].vertex, row[i].vertex);
    EXPECT_EQ(neighbors.entries[i].rank, row[i].rank);
  }

  PprRequest full;
  full.iterations = 20;
  const Response ppr = client.ppr(full);
  ASSERT_TRUE(ppr.ok());
  EXPECT_EQ(core::digest_hex(ppr.ppr.digest), golden);
  EXPECT_EQ(ppr.ppr.iterations_run, 20u);

  const Response unknown = client.rank(loaded.service->vertices());
  EXPECT_EQ(unknown.status, Status::kUnknownVertex);
  EXPECT_FALSE(unknown.error.empty());

  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GE(stats.replies_sent, 7u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

}  // namespace
}  // namespace prpb::serve
