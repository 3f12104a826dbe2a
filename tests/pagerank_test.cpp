// Tests for kernel 3 (src/sparse/pagerank.*): the paper's update rule, the
// eigenvector equivalence, dangling-mass decay, and the extension options.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "gen/generator.hpp"
#include "sparse/dense.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace prpb::sparse {
namespace {

CsrMatrix two_cycle() {
  // 0 <-> 1, row-normalized by construction.
  return CsrMatrix::from_triplets({0, 1}, {1, 0}, {1.0, 1.0}, 2, 2);
}

// ---- initial vector -----------------------------------------------------------

TEST(PageRankInitTest, NormalizedToOne) {
  const auto r = pagerank_initial_vector(1000, 42);
  EXPECT_NEAR(std::accumulate(r.begin(), r.end(), 0.0), 1.0, 1e-12);
}

TEST(PageRankInitTest, DeterministicPerSeed) {
  EXPECT_EQ(pagerank_initial_vector(100, 1), pagerank_initial_vector(100, 1));
  EXPECT_NE(pagerank_initial_vector(100, 1), pagerank_initial_vector(100, 2));
}

TEST(PageRankInitTest, AllEntriesPositive) {
  for (const double x : pagerank_initial_vector(1000, 3)) EXPECT_GT(x, 0.0);
}

TEST(PageRankInitTest, SizeZeroThrows) {
  EXPECT_THROW(pagerank_initial_vector(0, 1), util::ConfigError);
}

// ---- update rule ----------------------------------------------------------------

TEST(PageRankTest, OneIterationMatchesHandComputation) {
  // r = [0.25, 0.75], A = two-cycle, c = 0.85:
  // r*A = [0.75, 0.25]; add = 0.15*1.0/2 = 0.075
  // r'  = [0.85*0.75 + 0.075, 0.85*0.25 + 0.075] = [0.7125, 0.2875]
  const CsrMatrix a = two_cycle();
  std::vector<double> r = {0.25, 0.75};
  PageRankConfig config;
  config.iterations = 1;
  pagerank_iterate(a, r, config);
  EXPECT_NEAR(r[0], 0.7125, 1e-12);
  EXPECT_NEAR(r[1], 0.2875, 1e-12);
}

TEST(PageRankTest, ZeroIterationsLeavesInputUnchanged) {
  const CsrMatrix a = two_cycle();
  std::vector<double> r = {0.3, 0.7};
  PageRankConfig config;
  config.iterations = 0;
  pagerank_iterate(a, r, config);
  EXPECT_DOUBLE_EQ(r[0], 0.3);
  EXPECT_DOUBLE_EQ(r[1], 0.7);
}

TEST(PageRankTest, MassConservedWithoutDanglingNodes) {
  // Fully stochastic matrix (no dangling rows): sum(r) stays 1.
  const CsrMatrix a = two_cycle();
  PageRankConfig config;
  config.iterations = 20;
  const auto r = pagerank(a, config);
  EXPECT_NEAR(std::accumulate(r.begin(), r.end(), 0.0), 1.0, 1e-12);
}

TEST(PageRankTest, MassDecaysWithDanglingNodes) {
  // Paper deliberately omits the dangling correction: with a dangling row
  // the total mass decreases each iteration.
  const CsrMatrix a =
      CsrMatrix::from_triplets({0}, {1}, {1.0}, 2, 2);  // row 1 dangling
  PageRankConfig config;
  config.iterations = 1;
  std::vector<double> r = {0.5, 0.5};
  pagerank_iterate(a, r, config);
  const double sum = r[0] + r[1];
  EXPECT_LT(sum, 1.0);
  // exact: c*0.5 (mass through the edge) + 2*(1-c)*1/2 = 0.425 + 0.15
  EXPECT_NEAR(sum, 0.575, 1e-12);
}

TEST(PageRankTest, DampingZeroGivesUniformTeleport) {
  // c = 0: r' = sum(r)/N everywhere.
  const CsrMatrix a = two_cycle();
  std::vector<double> r = {0.9, 0.1};
  PageRankConfig config;
  config.iterations = 1;
  config.damping = 0.0;
  pagerank_iterate(a, r, config);
  EXPECT_NEAR(r[0], 0.5, 1e-12);
  EXPECT_NEAR(r[1], 0.5, 1e-12);
}

TEST(PageRankTest, DampingOnePureWalk) {
  // c = 1: r' = r*A exactly.
  const CsrMatrix a = two_cycle();
  std::vector<double> r = {0.9, 0.1};
  PageRankConfig config;
  config.iterations = 1;
  config.damping = 1.0;
  pagerank_iterate(a, r, config);
  EXPECT_NEAR(r[0], 0.1, 1e-12);
  EXPECT_NEAR(r[1], 0.9, 1e-12);
}

TEST(PageRankTest, InvalidConfigThrows) {
  PageRankConfig config;
  config.iterations = -1;
  EXPECT_THROW(config.validate(), util::ConfigError);
  config = PageRankConfig{};
  config.damping = 1.5;
  EXPECT_THROW(config.validate(), util::ConfigError);
}

TEST(PageRankTest, NonSquareMatrixThrows) {
  const CsrMatrix a(2, 3);
  std::vector<double> r = {1.0, 0.0};
  EXPECT_THROW(pagerank_iterate(a, r, PageRankConfig{}),
               util::ConfigError);
}

TEST(PageRankTest, WrongVectorSizeThrows) {
  const CsrMatrix a = two_cycle();
  std::vector<double> r = {1.0};
  EXPECT_THROW(pagerank_iterate(a, r, PageRankConfig{}),
               util::ConfigError);
}

// ---- eigenvector equivalence (the paper's validation) --------------------------

class EigenCheckTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EigenCheckTest, TwentyIterationsApproachLeadingEigenvector) {
  const auto generator = gen::make_generator(GetParam(), 8, 16, 99);
  const CsrMatrix a =
      filter_edges(generator->generate_all(), generator->num_vertices());

  PageRankConfig config;
  config.iterations = 60;  // extra iterations to tighten the comparison
  const auto r = pagerank(a, config);

  const DenseMatrix g = pagerank_validation_matrix(a, config.damping);
  const auto eig = power_iteration(g, 3000, 1e-13);
  ASSERT_TRUE(eig.converged);

  const auto rn = normalized1(r);
  const auto en = normalized1(eig.eigenvector);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < rn.size(); ++i)
    max_diff = std::max(max_diff, std::abs(rn[i] - en[i]));
  EXPECT_LT(max_diff, 1e-8) << "generator " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Generators, EigenCheckTest,
                         ::testing::Values("kronecker", "bter", "ppl"));

TEST(PageRankTest, RankingStableAcrossExtraIterations) {
  // Past convergence, extra iterations must not change the ordering.
  const auto generator = gen::make_generator("kronecker", 8, 16, 7);
  const CsrMatrix a =
      filter_edges(generator->generate_all(), generator->num_vertices());
  PageRankConfig c20;
  c20.iterations = 20;
  PageRankConfig c40;
  c40.iterations = 40;
  const auto r20 = normalized1(pagerank(a, c20));
  const auto r40 = normalized1(pagerank(a, c40));
  // compare argmax and overall closeness
  const auto max20 = std::max_element(r20.begin(), r20.end()) - r20.begin();
  const auto max40 = std::max_element(r40.begin(), r40.end()) - r40.begin();
  EXPECT_EQ(max20, max40);
  for (std::size_t i = 0; i < r20.size(); ++i) {
    EXPECT_NEAR(r20[i], r40[i], 1e-6);
  }
}

TEST(PageRankTest, UniformGraphGivesUniformRank) {
  // Complete graph with self loops (normalized): stationary = uniform.
  std::vector<std::uint64_t> rows, cols;
  std::vector<double> vals;
  const std::uint64_t n = 8;
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(1.0 / static_cast<double>(n));
    }
  }
  const CsrMatrix a = CsrMatrix::from_triplets(rows, cols, vals, n, n);
  PageRankConfig config;
  config.iterations = 30;
  const auto r = normalized1(pagerank(a, config));
  for (const double x : r) EXPECT_NEAR(x, 1.0 / n, 1e-10);
}

// ---- pooled SpMV ------------------------------------------------------------------

TEST(PageRankTest, PooledRunIsBitIdenticalToSerial) {
  // The pooled SpMV sums each output entry over the transposed matrix in
  // serial row order, so any thread count reproduces the serial ranks
  // exactly, with telemetry on.
  const auto generator = gen::make_generator("kronecker", 10, 16, 20160205);
  const CsrMatrix a =
      filter_edges(generator->generate_all(), generator->num_vertices());
  std::vector<double> residuals;
  PageRankConfig config;
  config.observer = [&residuals](const IterationStats& stats) {
    residuals.push_back(stats.residual_l1);
    residuals.push_back(stats.rank_sum);
  };
  const auto serial = pagerank(a, config);
  const auto serial_residuals = residuals;
  ASSERT_EQ(serial_residuals.size(), 2u * config.iterations);
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    util::ThreadPool pool(threads);
    residuals.clear();
    EXPECT_EQ(pagerank(a, config, &pool), serial) << threads << " threads";
    EXPECT_EQ(residuals, serial_residuals) << threads << " threads";
  }
}

// ---- bit-identity oracle ----------------------------------------------------------
//
// A plain push reference written out here: y = r·A with vec_mat, then the
// paper's update, with the residual taken against a copy of the previous
// vector and the rank sum from a separate pass. Every library path must
// reproduce it bit for bit, telemetry included.

struct OracleRun {
  std::vector<double> ranks;
  std::vector<IterationStats> stats;
};

OracleRun push_reference(const CsrMatrix& a, std::vector<double> r,
                         const PageRankConfig& config) {
  OracleRun run;
  const double c = config.damping;
  std::vector<double> y;
  for (int it = 0; it < config.iterations; ++it) {
    const std::vector<double> previous = r;
    a.vec_mat(r, y);
    double r_sum = 0.0;
    for (const double x : r) r_sum += x;
    const double add = (1.0 - c) * r_sum / static_cast<double>(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = c * y[i] + add;
    IterationStats stats;
    stats.iteration = it;
    for (std::size_t i = 0; i < r.size(); ++i) {
      stats.residual_l1 += std::abs(r[i] - previous[i]);
      stats.rank_sum += r[i];
    }
    run.stats.push_back(stats);
  }
  run.ranks = std::move(r);
  return run;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs pagerank_iterate serially and on pools of 1–4 threads, each from
/// `r0`, and checks ranks and telemetry against push_reference. Wall time
/// (`seconds`) is the one field no two runs share; it is checked for sign.
void expect_matches_push_reference(const CsrMatrix& a,
                                   const std::vector<double>& r0,
                                   PageRankConfig config,
                                   const std::string& label) {
  const OracleRun expected = push_reference(a, r0, config);
  std::vector<IterationStats> stats;
  config.observer = [&stats](const IterationStats& s) { stats.push_back(s); };
  for (const std::size_t threads : {0u, 1u, 2u, 3u, 4u}) {
    const std::string where = label + ", " + std::to_string(threads) +
                              (threads == 0 ? " (serial)" : " threads");
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    std::vector<double> r = r0;
    stats.clear();
    pagerank_iterate(a, r, config, pool.get());
    EXPECT_TRUE(same_bits(r, expected.ranks)) << where;
    ASSERT_EQ(stats.size(), expected.stats.size()) << where;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].iteration, expected.stats[i].iteration) << where;
      EXPECT_TRUE(
          same_bits(stats[i].residual_l1, expected.stats[i].residual_l1))
          << where << ", iteration " << i;
      EXPECT_TRUE(same_bits(stats[i].rank_sum, expected.stats[i].rank_sum))
          << where << ", iteration " << i;
      EXPECT_GE(stats[i].seconds, 0.0) << where;
    }
  }
}

TEST(PageRankOracleTest, GeneratedGraphsMatchPushReference) {
  for (const char* name : {"kronecker", "bter", "ppl"}) {
    for (const int scale : {10, 12, 14}) {
      const auto generator = gen::make_generator(name, scale, 16, 20160205);
      const CsrMatrix a =
          filter_edges(generator->generate_all(), generator->num_vertices());
      const PageRankConfig config;
      expect_matches_push_reference(
          a, pagerank_initial_vector(a.rows(), config.seed), config,
          std::string(name) + " s" + std::to_string(scale));
    }
  }
}

TEST(PageRankOracleTest, SingleVertexMatchesPushReference) {
  const PageRankConfig config;
  expect_matches_push_reference(
      CsrMatrix::from_triplets({0}, {0}, {1.0}, 1, 1), {1.0}, config,
      "N = 1, self loop");
  expect_matches_push_reference(CsrMatrix(1, 1), {1.0}, config,
                                "N = 1, no entry");
}

TEST(PageRankOracleTest, MatrixWithoutEntriesMatchesPushReference) {
  const CsrMatrix a(5, 5);
  expect_matches_push_reference(a, pagerank_initial_vector(5, 3),
                                PageRankConfig{}, "no entries");
}

TEST(PageRankOracleTest, DanglingRowsAndEmptyColumnsMatchPushReference) {
  // Rows 1, 4 and 5 are dangling; columns 0, 3 and 5 are empty, as the
  // kernel-2 filter leaves them. Column 2 has the highest in-degree and
  // column 4 ties with column 1, so the grouping reorders and breaks ties.
  const CsrMatrix a = CsrMatrix::from_triplets(
      {0, 0, 2, 2, 3, 3, 3}, {2, 4, 1, 2, 1, 2, 4},
      {0.5, 0.5, 0.25, 0.75, 0.125, 0.5, 0.375}, 6, 6);
  expect_matches_push_reference(a, pagerank_initial_vector(6, 11),
                                PageRankConfig{}, "dangling rows");
}

TEST(PageRankOracleTest, ZeroEntriesInTheRankVectorMatchPushReference) {
  // The push SpMV skips rows whose rank is exactly zero. With damping 1
  // the zeros persist past the first iteration.
  const auto generator = gen::make_generator("kronecker", 10, 16, 5);
  const CsrMatrix a =
      filter_edges(generator->generate_all(), generator->num_vertices());
  std::vector<double> r0 = pagerank_initial_vector(a.rows(), 9);
  for (std::size_t i = 0; i < r0.size(); i += 3) r0[i] = 0.0;
  for (const double damping : {0.85, 1.0}) {
    PageRankConfig config;
    config.damping = damping;
    expect_matches_push_reference(a, r0, config,
                                  "zeros in r, c = " + std::to_string(damping));
  }
}

}  // namespace
}  // namespace prpb::sparse
