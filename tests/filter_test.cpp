// Tests for kernel 2's filter (src/sparse/filter.*): step-by-step
// conformance with the paper's Matlab reference and structural properties on
// generated graphs.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/generator.hpp"
#include "sparse/filter.hpp"

namespace prpb::sparse {
namespace {

using gen::EdgeList;

// A hand-checkable example:
//   edges: 0->1 (x2), 1->2, 2->1, 3->1, 3->2, 0->3
//   din = [0, 4, 2, 1]; max(din) = 4 -> column 1 zeroed; din==1 -> column 3
//   zeroed. Remaining entries: 1->2, 3->2.
//   dout after zeroing = [0, 1, 0, 1]; rows 1 and 3 normalized (already 1).
TEST(FilterTest, HandWorkedExample) {
  const EdgeList edges = {{0, 1}, {0, 1}, {1, 2}, {2, 1}, {3, 1},
                          {3, 2}, {0, 3}};
  FilterReport report;
  const CsrMatrix a = filter_edges(edges, 4, &report);

  EXPECT_EQ(report.input_edges, 7u);
  EXPECT_DOUBLE_EQ(report.max_in_degree, 4.0);
  EXPECT_EQ(report.supernode_columns, 1u);  // column 1
  EXPECT_EQ(report.leaf_columns, 1u);       // column 3
  EXPECT_EQ(report.nnz_before, 6u);
  EXPECT_EQ(report.nnz_after, 2u);
  EXPECT_EQ(report.dangling_rows, 2u);  // rows 0 and 2

  EXPECT_DOUBLE_EQ(a.at(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(a.at(3, 2), 1.0);
  EXPECT_EQ(a.nnz(), 2u);
}

TEST(FilterTest, CountMatrixSumsToM) {
  // Pre-filter invariant: sum of entries == M even with duplicates.
  const auto generator = gen::make_generator("kronecker", 9, 16, 5);
  const EdgeList edges = generator->generate_all();
  const CsrMatrix a =
      CsrMatrix::from_edges(edges, generator->num_vertices(),
                            generator->num_vertices());
  EXPECT_DOUBLE_EQ(a.value_sum(), static_cast<double>(edges.size()));
  EXPECT_LT(a.nnz(), edges.size());  // collisions exist at this scale
}

TEST(FilterTest, NonzeroRowsSumToOne) {
  const auto generator = gen::make_generator("kronecker", 9, 16, 5);
  const CsrMatrix a =
      filter_edges(generator->generate_all(), generator->num_vertices());
  for (const double s : a.row_sums()) {
    if (s != 0.0) {
      EXPECT_NEAR(s, 1.0, 1e-12);
    }
  }
}

TEST(FilterTest, SupernodeColumnActuallyRemoved) {
  const auto generator = gen::make_generator("kronecker", 9, 16, 5);
  const EdgeList edges = generator->generate_all();
  const std::uint64_t n = generator->num_vertices();
  const CsrMatrix raw = CsrMatrix::from_edges(edges, n, n);
  const auto din = raw.col_sums();
  const double max_din = *std::max_element(din.begin(), din.end());

  FilterReport report;
  CsrMatrix filtered = raw;
  apply_filter(filtered, &report);
  const auto din_after = filtered.col_sums();
  for (std::size_t c = 0; c < din.size(); ++c) {
    if (din[c] == max_din || din[c] == 1.0) {
      EXPECT_DOUBLE_EQ(din_after[c], 0.0) << "column " << c;
    }
  }
}

TEST(FilterTest, OnlyTargetColumnsRemoved) {
  const auto generator = gen::make_generator("kronecker", 8, 16, 11);
  const EdgeList edges = generator->generate_all();
  const std::uint64_t n = generator->num_vertices();
  const CsrMatrix raw = CsrMatrix::from_edges(edges, n, n);
  const auto din = raw.col_sums();
  const double max_din = *std::max_element(din.begin(), din.end());

  CsrMatrix filtered = raw;
  apply_filter(filtered, nullptr);
  // Columns not matching the criteria keep their (pre-normalization)
  // structural entries: check column nonzero structure.
  const CsrMatrix raw_t = raw.transpose();
  const CsrMatrix filt_t = filtered.transpose();
  for (std::uint64_t c = 0; c < n; ++c) {
    const auto raw_count = raw_t.row_ptr()[c + 1] - raw_t.row_ptr()[c];
    const auto filt_count = filt_t.row_ptr()[c + 1] - filt_t.row_ptr()[c];
    if (din[c] == max_din || din[c] == 1.0) {
      EXPECT_EQ(filt_count, 0u);
    } else {
      EXPECT_EQ(filt_count, raw_count) << "column " << c;
    }
  }
}

TEST(FilterTest, EmptyEdgeList) {
  FilterReport report;
  const CsrMatrix a = filter_edges({}, 8, &report);
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_EQ(report.dangling_rows, 8u);
  EXPECT_DOUBLE_EQ(report.max_in_degree, 0.0);
}

TEST(FilterTest, UniformInDegreeZeroesEverything) {
  // Ring graph: every column has in-degree 1 == max -> all columns match
  // the super-node criterion and the matrix empties.
  EdgeList ring;
  for (std::uint64_t i = 0; i < 8; ++i) ring.push_back({i, (i + 1) % 8});
  FilterReport report;
  const CsrMatrix a = filter_edges(ring, 8, &report);
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_EQ(report.supernode_columns, 8u);
  EXPECT_EQ(report.leaf_columns, 0u);  // classified as super-node first
}

TEST(FilterTest, SelfLoopsSurviveWhenColumnRetained) {
  // Column 2 has in-degree 2 (not max, not 1) and keeps its self-loop.
  const EdgeList edges = {{2, 2}, {1, 2}, {0, 1}, {3, 1}, {1, 0},
                          {0, 3}, {3, 0}, {2, 0}};
  // din = [3, 2, 2, 1]: max column 0 zeroed, leaf column 3 zeroed.
  FilterReport report;
  const CsrMatrix a = filter_edges(edges, 4, &report);
  EXPECT_GT(a.at(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 3), 0.0);
}

TEST(FilterTest, ReportDanglingRowsCountsEmptyRows) {
  // 0->1, 1->... nothing: vertex 1 is dangling by construction.
  const EdgeList edges = {{0, 1}, {0, 2}, {2, 1}, {2, 3}, {3, 2}};
  FilterReport report;
  filter_edges(edges, 4, &report);
  // regardless of filtering details, dangling rows = rows with dout 0
  EXPECT_GE(report.dangling_rows, 1u);
}

class FilterGeneratorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FilterGeneratorTest, InvariantsHoldAcrossGenerators) {
  const auto generator = gen::make_generator(GetParam(), 9, 16, 3);
  const EdgeList edges = generator->generate_all();
  const std::uint64_t n = generator->num_vertices();
  FilterReport report;
  const CsrMatrix a = filter_edges(edges, n, &report);

  EXPECT_EQ(report.input_edges, edges.size());
  EXPECT_LE(report.nnz_after, report.nnz_before);
  EXPECT_GE(report.max_in_degree, 1.0);
  // Normalization: every row sums to 0 or 1.
  for (const double s : a.row_sums()) {
    EXPECT_TRUE(s == 0.0 || std::abs(s - 1.0) < 1e-12);
  }
  // Values in (0, 1] after normalization.
  for (const double v : a.values()) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, FilterGeneratorTest,
                         ::testing::Values("kronecker", "bter", "ppl"));

}  // namespace
}  // namespace prpb::sparse
