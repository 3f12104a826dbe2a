// Query-exactness suite for the rank server (ISSUE 10, DESIGN.md §13).
//
// Pins the serving layer to the pipeline's own numbers: topk must agree
// with a full sort of the golden rank vector, rank/neighbors with direct
// CSR lookups, and a full-restart personalized PageRank at the configured
// iteration count must reproduce the committed kernel-3 rank digest — on
// every backend, through the service API and through the wire — and, on
// native, every kernel-3 rank bit. Every ppr reply must also match a
// plain vec_mat reference bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "io/file_stream.hpp"
#include "rand/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

#ifndef PRPB_TEST_DATA_DIR
#error "PRPB_TEST_DATA_DIR must point at tests/data"
#endif

namespace prpb::serve {
namespace {

constexpr const char* kGoldenPath = PRPB_TEST_DATA_DIR "/golden_checksums.json";

/// One field of the committed golden entry at `scale`, or "" without one.
std::string golden_field(int scale, const std::string& field) {
  const util::JsonValue doc =
      util::JsonValue::parse(io::read_file(kGoldenPath));
  const util::JsonValue* entry = doc.find("scale_" + std::to_string(scale));
  if (entry == nullptr) return {};
  return entry->at(field).string();
}

std::string golden_rank_digest(int scale) {
  return golden_field(scale, "rank_digest");
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
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

// With topk = N the reply carries the whole vector: on native it must be
// kernel 3's, bit for bit, and hash to the golden exact `rank_bits`.
TEST_P(ServingPprScaleTest, FullRestartPprReproducesGoldenDigest) {
  const int scale = GetParam();
  const std::string golden = golden_rank_digest(scale);
  ASSERT_FALSE(golden.empty());
  const Loaded loaded = load(scale);
  const std::uint64_t n = loaded.service->vertices();
  PprRequest full;
  full.iterations = 20;
  full.topk = static_cast<std::uint32_t>(n);
  const PprResult result = loaded.service->ppr(full);
  EXPECT_EQ(core::digest_hex(result.digest), golden);

  ASSERT_EQ(result.top.size(), n);
  std::vector<double> ranks(n);
  for (const RankEntry& entry : result.top) {
    ASSERT_LT(entry.vertex, n);
    ranks[entry.vertex] = entry.rank;
    EXPECT_TRUE(same_bits(entry.rank, loaded.ranks[entry.vertex]))
        << "vertex " << entry.vertex;
  }
  EXPECT_EQ(core::digest_hex(core::rank_bits_digest(ranks)),
            golden_field(scale, "rank_bits"));
}

INSTANTIATE_TEST_SUITE_P(Scales, ServingPprScaleTest,
                         ::testing::Values(8, 9, 10, 11, 12),
                         [](const ::testing::TestParamInfo<int>& scale) {
                           return "scale_" + std::to_string(scale.param);
                         });

// ---- ppr: a plain vec_mat reference ----------------------------------------
//
// The service's ppr written out plainly: y = r·A with vec_mat, c·y
// everywhere plus the teleport term on each restart vertex, the residual
// against a copy of the previous vector and sum(r) from a separate pass
// per iteration, then a full sort for the top entries. Every reply field
// of service.ppr must match it bit for bit.

PprResult ppr_reference(const sparse::CsrMatrix& a,
                        const ServiceOptions& options,
                        const PprRequest& request) {
  const std::uint64_t n = a.rows();
  std::vector<std::uint64_t> restart = request.restart;
  std::sort(restart.begin(), restart.end());
  restart.erase(std::unique(restart.begin(), restart.end()), restart.end());
  std::vector<double> r;
  if (restart.empty() || restart.size() == n) {
    r = sparse::pagerank_initial_vector(n, options.seed);
    restart.resize(n);
    for (std::uint64_t v = 0; v < n; ++v) restart[v] = v;
  } else {
    r.assign(n, 0.0);
    for (const std::uint64_t v : restart) {
      r[v] = 1.0 / static_cast<double>(restart.size());
    }
  }
  const double c = options.damping;
  std::vector<double> y;
  PprResult result;
  for (std::uint32_t it = 0; it < request.iterations; ++it) {
    const std::vector<double> previous = r;
    double r_sum = 0.0;
    for (const double x : r) r_sum += x;
    a.vec_mat(r, y);
    const double add =
        (1.0 - c) * r_sum / static_cast<double>(restart.size());
    for (std::size_t i = 0; i < n; ++i) r[i] = c * y[i];
    for (const std::uint64_t v : restart) r[v] += add;
    result.iterations_run = it + 1;
    if (request.epsilon > 0.0) {
      double residual = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        residual += std::abs(r[i] - previous[i]);
      }
      result.residual = residual;
      if (residual < request.epsilon) break;
    }
  }
  result.digest = core::rank_digest(r);
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&r](std::uint64_t u, std::uint64_t v) {
    if (r[u] != r[v]) return r[u] > r[v];
    return u < v;
  });
  order.resize(std::min<std::uint64_t>(request.topk, n));
  for (const std::uint64_t v : order) result.top.push_back({v, r[v]});
  return result;
}

class ServingPprOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ServingPprOracleTest, MatchesPlainVecMatReference) {
  const Loaded loaded = load(GetParam());
  const std::uint64_t n = loaded.service->vertices();
  rnd::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  int early_exits = 0;
  for (const std::uint64_t size : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{3}, n / 2}) {
    PprRequest request;
    request.iterations = 40;
    request.topk = static_cast<std::uint32_t>(n);
    for (std::uint64_t i = 0; i < size; ++i) {
      request.restart.push_back(rng.next() % n);
    }
    for (const double epsilon : {0.0, 1e-2}) {
      request.epsilon = epsilon;
      const std::string where = "restart " + std::to_string(size) +
                                ", epsilon " + std::to_string(epsilon);
      const PprResult expected =
          ppr_reference(loaded.matrix, loaded.service->options(), request);
      const PprResult actual = loaded.service->ppr(request);
      EXPECT_EQ(actual.digest, expected.digest) << where;
      EXPECT_TRUE(same_bits(actual.residual, expected.residual)) << where;
      EXPECT_EQ(actual.iterations_run, expected.iterations_run) << where;
      ASSERT_EQ(actual.top.size(), expected.top.size()) << where;
      for (std::size_t i = 0; i < expected.top.size(); ++i) {
        EXPECT_EQ(actual.top[i].vertex, expected.top[i].vertex) << where;
        EXPECT_TRUE(same_bits(actual.top[i].rank, expected.top[i].rank))
            << where << ", entry " << i;
      }
      if (expected.iterations_run < request.iterations) ++early_exits;
    }
  }
  // Each epsilon > 0 case must stop early, or the early exit goes untested.
  EXPECT_EQ(early_exits, 4);
}

INSTANTIATE_TEST_SUITE_P(Scales, ServingPprOracleTest,
                         ::testing::Values(8, 10, 12),
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

TEST(ServingServiceTest, ZeroVertexServiceAnswersEveryQuery) {
  const RankService service(sparse::CsrMatrix(0, 0), {}, ServiceOptions{});
  EXPECT_EQ(service.vertices(), 0u);
  EXPECT_EQ(service.nnz(), 0u);
  EXPECT_TRUE(service.topk(5).empty());
  PprRequest full;
  full.iterations = 20;
  full.topk = 5;
  const PprResult result = service.ppr(full);
  EXPECT_EQ(result.iterations_run, 20u);
  EXPECT_EQ(result.digest, core::rank_digest({}));
  EXPECT_TRUE(result.top.empty());

  Request info;
  info.id = 1;
  info.opcode = Opcode::kInfo;
  const Response info_reply = decode_response(service.handle(info));
  ASSERT_TRUE(info_reply.ok());
  EXPECT_EQ(info_reply.info.vertices, 0u);
  Request rank;
  rank.id = 2;
  rank.opcode = Opcode::kRank;
  rank.vertex = 0;
  EXPECT_EQ(decode_response(service.handle(rank)).status,
            Status::kUnknownVertex);
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
