// Randomized property tests: invariants that must hold for arbitrary
// inputs, swept over seeds with parameterized gtest. Complements the
// example-based suites with breadth.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/checksum.hpp"
#include "gen/kronecker.hpp"
#include "grb/ops.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "rand/rng.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/csr.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/fs.hpp"

namespace prpb {
namespace {

gen::EdgeList random_edges(std::uint64_t seed, std::size_t count,
                           std::uint64_t max_vertex) {
  rnd::Xoshiro256 rng(seed);
  gen::EdgeList edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back({rng.next_below(max_vertex), rng.next_below(max_vertex)});
  }
  return edges;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// ---- codec round trip for arbitrary edges -----------------------------------------

TEST_P(SeedSweep, TsvRoundTripPreservesAnyEdgeList) {
  const auto edges = random_edges(GetParam(), 2000, ~0ULL >> 1);
  for (const auto codec : {io::Codec::kFast, io::Codec::kGeneric}) {
    std::string text;
    for (const auto& edge : edges) io::append_edges(text, &edge, 1, codec);
    gen::EdgeList parsed;
    EXPECT_EQ(io::parse_edges(text, parsed, codec), text.size());
    EXPECT_EQ(parsed, edges);
  }
}

TEST_P(SeedSweep, ShardedStageRoundTripAnyShardCount) {
  const auto edges = random_edges(GetParam(), 1000, 1 << 20);
  util::TempDir dir("prpb-prop");
  io::DirStageStore store(dir.path());
  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  const std::size_t shards = 1 + GetParam() % 9;
  io::write_edge_list(store, "s", edges, shards, codec);
  EXPECT_EQ(io::read_all_edges(store, "s", codec), edges);
}

// ---- sorting invariants -------------------------------------------------------------

TEST_P(SeedSweep, AllSortEnginesAgree) {
  const auto original = random_edges(GetParam(), 3000, 1 << 14);
  gen::EdgeList a = original;
  gen::EdgeList b = original;
  gen::EdgeList c = original;
  std::stable_sort(a.begin(), a.end(),
                   [](const gen::Edge& x, const gen::Edge& y) {
                     return x.u != y.u ? x.u < y.u : x.v < y.v;
                   });
  sort::radix_sort(b);
  util::ThreadPool pool(3);
  sort::radix_sort(c, sort::SortKey::kStartEnd, &pool);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_P(SeedSweep, SortIsPermutation) {
  const auto original = random_edges(GetParam(), 3000, 1 << 14);
  gen::EdgeList sorted = original;
  sort::radix_sort(sorted);
  EXPECT_EQ(core::edge_multiset_hash(sorted),
            core::edge_multiset_hash(original));
  EXPECT_TRUE(sort::is_sorted_edges(sorted, sort::SortKey::kStartEnd));
}

// ---- CSR construction invariants -----------------------------------------------------

TEST_P(SeedSweep, CsrValueSumEqualsEdgeCount) {
  const std::uint64_t n = 1 << 10;
  const auto edges = random_edges(GetParam(), 5000, n);
  const auto a = sparse::CsrMatrix::from_edges(edges, n, n);
  EXPECT_DOUBLE_EQ(a.value_sum(), static_cast<double>(edges.size()));
  EXPECT_LE(a.nnz(), edges.size());
  // column sums equal transpose row sums
  const auto csum = a.col_sums();
  const auto tsum = a.transpose().row_sums();
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(csum[i], tsum[i]);
}

TEST_P(SeedSweep, CsrBuildOrderInvariant) {
  const std::uint64_t n = 512;
  auto edges = random_edges(GetParam(), 4000, n);
  const auto a = sparse::CsrMatrix::from_edges(edges, n, n);
  rnd::Xoshiro256 rng(GetParam() ^ 0xabcdef);
  std::shuffle(edges.begin(), edges.end(), rng);
  const auto b = sparse::CsrMatrix::from_edges(edges, n, n);
  EXPECT_TRUE(a.approx_equal(b, 0.0));
}

// ---- filter invariants ----------------------------------------------------------------

TEST_P(SeedSweep, FilterInvariantsOnRandomGraphs) {
  const std::uint64_t n = 512;
  const auto edges = random_edges(GetParam(), 6000, n);
  sparse::FilterReport report;
  const auto a = sparse::filter_edges(edges, n, &report);
  EXPECT_EQ(report.input_edges, edges.size());
  EXPECT_LE(report.nnz_after, report.nnz_before);
  for (const double s : a.row_sums()) {
    EXPECT_TRUE(s == 0.0 || std::abs(s - 1.0) < 1e-12);
  }
  // no entry survives in a zeroed column
  const auto din_before =
      sparse::CsrMatrix::from_edges(edges, n, n).col_sums();
  const double max_din =
      *std::max_element(din_before.begin(), din_before.end());
  const auto din_after = a.col_sums();
  for (std::uint64_t c = 0; c < n; ++c) {
    if (din_before[c] == max_din || din_before[c] == 1.0) {
      ASSERT_DOUBLE_EQ(din_after[c], 0.0);
    }
  }
}

// ---- pagerank invariants ---------------------------------------------------------------

TEST_P(SeedSweep, PageRankStaysNonNegativeAndBounded) {
  const std::uint64_t n = 256;
  const auto edges = random_edges(GetParam(), 4000, n);
  const auto a = sparse::filter_edges(edges, n);
  sparse::PageRankConfig config;
  config.seed = GetParam();
  const auto r = sparse::pagerank(a, config);
  double total = 0.0;
  for (const double x : r) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0 + 1e-12);
    total += x;
  }
  EXPECT_LE(total, 1.0 + 1e-9);  // mass never grows (substochastic matrix)
}

TEST_P(SeedSweep, PageRankMatchesGrbFormulation) {
  const std::uint64_t n = 128;
  const auto edges = random_edges(GetParam(), 2000, n);
  const auto a = sparse::filter_edges(edges, n);
  sparse::PageRankConfig config;
  config.seed = GetParam();
  const auto direct = sparse::pagerank(a, config);

  // Same update through grb ops.
  const grb::Matrix m{a};
  grb::Vector r{sparse::pagerank_initial_vector(n, config.seed)};
  for (int it = 0; it < config.iterations; ++it) {
    const double r_sum = grb::reduce(r);
    const grb::Vector y = grb::vxm(r, m);
    const double add = (1 - config.damping) * r_sum / static_cast<double>(n);
    r = grb::apply(y, [&](double x) { return config.damping * x + add; });
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(direct[i], r[i], 1e-12);
  }
}

// ---- checksum discrimination -------------------------------------------------------------

TEST_P(SeedSweep, ChecksumDetectsSingleEdgeMutation) {
  auto edges = random_edges(GetParam(), 1000, 1 << 16);
  const auto before = core::edge_multiset_hash(edges);
  edges[GetParam() % edges.size()].v ^= 1;
  EXPECT_NE(core::edge_multiset_hash(edges), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace prpb
