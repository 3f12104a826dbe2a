// Tests for src/sparse: CSR construction (duplicate accumulation), matrix
// operations, transpose, SpMV, and the dense validation machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gen/kronecker.hpp"
#include "rand/rng.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"

namespace prpb::sparse {
namespace {

using gen::Edge;
using gen::EdgeList;

// ---- construction -------------------------------------------------------------

TEST(CsrTest, EmptyMatrix) {
  const CsrMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_DOUBLE_EQ(m.value_sum(), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 0.0);
}

TEST(CsrTest, FromEdgesAccumulatesDuplicates) {
  // Paper: "A should have fewer than M non-zero entries, but all the
  // entries in A should sum to M."
  const EdgeList edges = {{0, 1}, {0, 1}, {0, 1}, {1, 2}};
  const CsrMatrix m = CsrMatrix::from_edges(edges, 3, 3);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.value_sum(), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.0);
}

TEST(CsrTest, FromEdgesSortsColumnsWithinRows) {
  const EdgeList edges = {{0, 5}, {0, 1}, {0, 3}};
  const CsrMatrix m = CsrMatrix::from_edges(edges, 1, 6);
  ASSERT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.col_idx()[0], 1u);
  EXPECT_EQ(m.col_idx()[1], 3u);
  EXPECT_EQ(m.col_idx()[2], 5u);
}

TEST(CsrTest, FromEdgesUnsortedInputGivesSameMatrixAsSorted) {
  EdgeList shuffled = {{2, 0}, {0, 2}, {1, 1}, {0, 1}, {2, 0}};
  EdgeList sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  const CsrMatrix a = CsrMatrix::from_edges(shuffled, 3, 3);
  const CsrMatrix b = CsrMatrix::from_edges(sorted, 3, 3);
  EXPECT_TRUE(a.approx_equal(b, 0.0));
}

TEST(CsrTest, FromEdgesOutOfRangeThrows) {
  EXPECT_THROW(CsrMatrix::from_edges({{3, 0}}, 3, 3),
               util::InvariantError);
  EXPECT_THROW(CsrMatrix::from_edges({{0, 3}}, 3, 3),
               util::InvariantError);
}

// from_edges builds in one pass over row-grouped input (K1's sorted stage)
// and from a sorted copy otherwise; both give the same arrays, bit for bit.
void expect_same_arrays(const CsrMatrix& a, const CsrMatrix& b) {
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

TEST(CsrFromEdgesTest, SortedAndShuffledKroneckerGiveIdenticalArrays) {
  gen::KroneckerParams params;
  params.scale = 12;
  const EdgeList generated = gen::KroneckerGenerator(params).generate_all();
  EdgeList sorted = generated;
  sort::radix_sort(sorted);
  EdgeList shuffled = generated;
  rnd::Xoshiro256 rng(5);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const std::uint64_t n = 1ULL << params.scale;
  const CsrMatrix from_sorted = CsrMatrix::from_edges(sorted, n, n);
  expect_same_arrays(from_sorted, CsrMatrix::from_edges(shuffled, n, n));
  expect_same_arrays(from_sorted, CsrMatrix::from_edges(generated, n, n));
  EXPECT_DOUBLE_EQ(from_sorted.value_sum(),
                   static_cast<double>(generated.size()));
}

TEST(CsrFromEdgesTest, RowsGroupedWithUnorderedColumnsAndScatteredDuplicates) {
  // Grouped by u as a start-only sort leaves them: columns go backwards and
  // duplicates are not adjacent.
  const EdgeList edges = {{0, 5}, {0, 2}, {0, 5}, {0, 1}, {0, 2},
                          {2, 3}, {2, 3}, {2, 0}, {2, 3}};
  const CsrMatrix m = CsrMatrix::from_edges(edges, 3, 6);
  EXPECT_EQ(m.row_ptr(), (std::vector<std::uint64_t>{0, 3, 3, 5}));
  EXPECT_EQ(m.col_idx(), (std::vector<ColIndex>{1, 2, 5, 0, 3}));
  EXPECT_EQ(m.values(), (std::vector<double>{1, 2, 2, 1, 3}));
  EdgeList sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  expect_same_arrays(m, CsrMatrix::from_edges(sorted, 3, 6));
}

TEST(CsrFromEdgesTest, EmptyLeadingTrailingAndInnerRows) {
  const EdgeList edges = {{2, 1}, {2, 1}, {4, 0}};
  const CsrMatrix m = CsrMatrix::from_edges(edges, 7, 2);
  EXPECT_EQ(m.row_ptr(), (std::vector<std::uint64_t>{0, 0, 0, 1, 1, 2, 2, 2}));
  EXPECT_EQ(m.col_idx(), (std::vector<ColIndex>{1, 0}));
  EXPECT_EQ(m.values(), (std::vector<double>{2, 1}));
  EXPECT_EQ(CsrMatrix::from_edges({}, 3, 3).row_ptr(),
            (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(CsrFromEdgesTest, OutOfRangeThrowsOnGroupedAndUngroupedPaths) {
  // Grouped by row: the bad endpoint is met in the one pass.
  EXPECT_THROW(CsrMatrix::from_edges({{0, 1}, {1, 1}, {3, 0}}, 3, 3),
               util::InvariantError);
  EXPECT_THROW(CsrMatrix::from_edges({{0, 1}, {1, 1}, {1, 3}}, 3, 3),
               util::InvariantError);
  // Not grouped: the pass gives up at the second edge, and the sorted copy
  // meets the bad endpoint.
  EXPECT_THROW(CsrMatrix::from_edges({{2, 0}, {0, 1}, {7, 0}}, 3, 3),
               util::InvariantError);
  EXPECT_THROW(CsrMatrix::from_edges({{2, 0}, {0, 1}, {1, 9}}, 3, 3),
               util::InvariantError);
}

TEST(CsrBuilderTest, BatchSizesGiveFromEdgesArrays) {
  // Fed a K1-ordered list in batches of 1, 7 and 4096 records, the builder
  // equals from_edges on the generator order, for both sort keys (start
  // only leaves rows with columns out of order).
  gen::KroneckerParams params;
  params.scale = 10;
  const EdgeList generated = gen::KroneckerGenerator(params).generate_all();
  const std::uint64_t n = 1ULL << params.scale;
  const CsrMatrix expected = CsrMatrix::from_edges(generated, n, n);
  for (const sort::SortKey key :
       {sort::SortKey::kStartEnd, sort::SortKey::kStart}) {
    EdgeList stage = generated;
    sort::radix_sort(stage, key);
    for (const std::size_t batch : {1u, 7u, 4096u}) {
      CsrBuilder builder(n, n, stage.size());
      for (std::size_t lo = 0; lo < stage.size(); lo += batch) {
        const EdgeList part(
            stage.begin() + static_cast<std::ptrdiff_t>(lo),
            stage.begin() + static_cast<std::ptrdiff_t>(
                                std::min(stage.size(), lo + batch)));
        ASSERT_TRUE(builder.add(part));
      }
      expect_same_arrays(builder.finish(), expected);
    }
  }
}

TEST(CsrBuilderTest, RowOutOfOrderIsRejectedAndNotAdded) {
  CsrBuilder builder(3, 3);
  EXPECT_TRUE(builder.add(1, 2, 1.0));
  EXPECT_FALSE(builder.add(0, 1, 1.0));
  EXPECT_TRUE(builder.add(2, 0, 0.5));
  const CsrMatrix m = builder.finish();
  EXPECT_EQ(m.row_ptr(), (std::vector<std::uint64_t>{0, 0, 1, 2}));
  EXPECT_EQ(m.col_idx(), (std::vector<ColIndex>{2, 0}));
  EXPECT_EQ(m.values(), (std::vector<double>{1.0, 0.5}));
}

TEST(CsrTest, FromTripletsAccumulates) {
  const CsrMatrix m = CsrMatrix::from_triplets({0, 0, 1}, {1, 1, 0},
                                               {2.0, 3.0, 1.5}, 2, 2);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.5);
}

TEST(CsrTest, FromTripletsMatchesFromEdges) {
  const EdgeList edges = {{0, 1}, {2, 2}, {0, 1}, {1, 0}};
  std::vector<std::uint64_t> rows, cols;
  for (const auto& e : edges) {
    rows.push_back(e.u);
    cols.push_back(e.v);
  }
  const std::vector<double> ones(edges.size(), 1.0);
  const CsrMatrix a = CsrMatrix::from_edges(edges, 3, 3);
  const CsrMatrix b = CsrMatrix::from_triplets(rows, cols, ones, 3, 3);
  EXPECT_TRUE(a.approx_equal(b, 0.0));
}

TEST(CsrTest, FromTripletsSizeMismatchThrows) {
  EXPECT_THROW(CsrMatrix::from_triplets({0}, {0, 1}, {1.0}, 2, 2),
               util::ConfigError);
}

// ---- sums and lookup ------------------------------------------------------------

TEST(CsrTest, ColAndRowSums) {
  // [[1, 2, 0],
  //  [0, 0, 3],
  //  [0, 4, 0]]
  const CsrMatrix m = CsrMatrix::from_triplets(
      {0, 0, 1, 2}, {0, 1, 2, 1}, {1, 2, 3, 4}, 3, 3);
  const auto cols = m.col_sums();
  EXPECT_DOUBLE_EQ(cols[0], 1.0);
  EXPECT_DOUBLE_EQ(cols[1], 6.0);
  EXPECT_DOUBLE_EQ(cols[2], 3.0);
  const auto rows = m.row_sums();
  EXPECT_DOUBLE_EQ(rows[0], 3.0);
  EXPECT_DOUBLE_EQ(rows[1], 3.0);
  EXPECT_DOUBLE_EQ(rows[2], 4.0);
}

TEST(CsrTest, AtOutOfRangeThrows) {
  const CsrMatrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), util::ConfigError);
  EXPECT_THROW((void)m.at(0, 2), util::ConfigError);
}

// ---- zero_columns ----------------------------------------------------------------

TEST(CsrTest, ZeroColumnsRemovesEntries) {
  const EdgeList edges = {{0, 0}, {0, 1}, {1, 1}, {2, 2}};
  CsrMatrix m = CsrMatrix::from_edges(edges, 3, 3);
  m.zero_columns({false, true, false});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 1.0);
}

TEST(CsrTest, ZeroColumnsAllAndNone) {
  const EdgeList edges = {{0, 0}, {1, 1}};
  CsrMatrix m = CsrMatrix::from_edges(edges, 2, 2);
  m.zero_columns({false, false});
  EXPECT_EQ(m.nnz(), 2u);
  m.zero_columns({true, true});
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.row_ptr().back(), 0u);
}

TEST(CsrTest, ZeroColumnsBadMaskThrows) {
  CsrMatrix m(2, 2);
  EXPECT_THROW(m.zero_columns({true}), util::ConfigError);
}

// ---- scaling --------------------------------------------------------------------

TEST(CsrTest, ScaleRowsInverseNormalizesRows) {
  const EdgeList edges = {{0, 0}, {0, 1}, {0, 2}, {1, 0}};
  CsrMatrix m = CsrMatrix::from_edges(edges, 2, 3);
  m.scale_rows_inverse(m.row_sums());
  const auto sums = m.row_sums();
  EXPECT_DOUBLE_EQ(sums[0], 1.0);
  EXPECT_DOUBLE_EQ(sums[1], 1.0);
}

TEST(CsrTest, ScaleRowsInverseSkipsZeroScale) {
  const EdgeList edges = {{0, 1}};
  CsrMatrix m = CsrMatrix::from_edges(edges, 2, 2);
  m.scale_rows_inverse({0.0, 0.0});  // must not divide by zero
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);
}

// ---- vec_mat --------------------------------------------------------------------

TEST(CsrTest, VecMatSmallExample) {
  // r * A with A = [[0, 1], [2, 0]], r = [3, 5] -> [10, 3]
  const CsrMatrix m =
      CsrMatrix::from_triplets({0, 1}, {1, 0}, {1.0, 2.0}, 2, 2);
  std::vector<double> y;
  m.vec_mat({3.0, 5.0}, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 10.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(CsrTest, VecMatAgainstDenseReference) {
  gen::KroneckerParams params;
  params.scale = 6;
  const auto edges = gen::KroneckerGenerator(params).generate_all();
  const CsrMatrix m = CsrMatrix::from_edges(edges, 64, 64);
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<double>(i % 7) + 0.5;

  std::vector<double> sparse_y;
  m.vec_mat(x, sparse_y);

  // Dense reference: y = xᵀ A computed as Aᵀ x.
  const DenseMatrix dense = DenseMatrix::from_csr(m).transposed();
  std::vector<double> dense_y;
  dense.mat_vec(x, dense_y);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(sparse_y[i], dense_y[i], 1e-9) << "col " << i;
  }
}

TEST(CsrTest, VecMatSizeMismatchThrows) {
  const CsrMatrix m(2, 3);
  std::vector<double> y;
  EXPECT_THROW(m.vec_mat({1.0}, y), util::ConfigError);
}

// ---- transpose ------------------------------------------------------------------

TEST(CsrTest, TransposeRoundTrip) {
  gen::KroneckerParams params;
  params.scale = 7;
  const auto edges = gen::KroneckerGenerator(params).generate_all();
  const CsrMatrix m = CsrMatrix::from_edges(edges, 128, 128);
  const CsrMatrix round_trip = m.transpose().transpose();
  EXPECT_TRUE(m.approx_equal(round_trip, 0.0));
}

TEST(CsrTest, TransposeSwapsEntries) {
  const CsrMatrix m =
      CsrMatrix::from_triplets({0, 1}, {2, 0}, {5.0, 7.0}, 2, 3);
  const CsrMatrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 7.0);
}

TEST(CsrTest, TransposeColumnSumsBecomeRowSums) {
  gen::KroneckerParams params;
  params.scale = 6;
  const auto edges = gen::KroneckerGenerator(params).generate_all();
  const CsrMatrix m = CsrMatrix::from_edges(edges, 64, 64);
  const auto csum = m.col_sums();
  const auto rsum_t = m.transpose().row_sums();
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(csum[i], rsum_t[i]);
  }
}

// ---- approx_equal -----------------------------------------------------------------

TEST(CsrTest, ApproxEqualDetectsDifferences) {
  const CsrMatrix a = CsrMatrix::from_triplets({0}, {0}, {1.0}, 2, 2);
  const CsrMatrix b = CsrMatrix::from_triplets({0}, {0}, {1.0 + 1e-12}, 2, 2);
  const CsrMatrix c = CsrMatrix::from_triplets({0}, {1}, {1.0}, 2, 2);
  EXPECT_TRUE(a.approx_equal(b, 1e-9));
  EXPECT_FALSE(a.approx_equal(b, 1e-15));
  EXPECT_FALSE(a.approx_equal(c, 1.0));  // structure differs
}

// ---- dense -----------------------------------------------------------------------

TEST(DenseTest, FromCsrAndTranspose) {
  const CsrMatrix m =
      CsrMatrix::from_triplets({0, 1}, {1, 0}, {2.0, 3.0}, 2, 2);
  const DenseMatrix d = DenseMatrix::from_csr(m);
  EXPECT_DOUBLE_EQ(d(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  const DenseMatrix t = d.transposed();
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
}

TEST(DenseTest, MatVec) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  std::vector<double> y;
  m.mat_vec({1.0, 1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(DenseTest, ValidationMatrixEntries) {
  // G = c*Aᵀ + (1-c)/N everywhere.
  const CsrMatrix a = CsrMatrix::from_triplets({0}, {1}, {0.5}, 2, 2);
  const DenseMatrix g = pagerank_validation_matrix(a, 0.85);
  const double teleport = 0.15 / 2.0;
  EXPECT_DOUBLE_EQ(g(1, 0), teleport + 0.85 * 0.5);
  EXPECT_DOUBLE_EQ(g(0, 1), teleport);
  EXPECT_DOUBLE_EQ(g(0, 0), teleport);
}

TEST(DenseTest, PowerIterationFindsDominantEigenvector) {
  // [[2, 0], [0, 1]] -> dominant eigenvector e0, eigenvalue 2.
  DenseMatrix m(2, 2);
  m(0, 0) = 2;
  m(1, 1) = 1;
  const auto result = power_iteration(m, 500, 1e-12);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalue, 2.0, 1e-6);
  EXPECT_NEAR(std::abs(result.eigenvector[0]), 1.0, 1e-6);
  EXPECT_NEAR(result.eigenvector[1], 0.0, 1e-6);
}

TEST(DenseTest, PowerIterationStochasticMatrixEigenvalueOne) {
  // Column-stochastic matrix: dominant eigenvalue 1.
  DenseMatrix m(2, 2);
  m(0, 0) = 0.9;
  m(0, 1) = 0.2;
  m(1, 0) = 0.1;
  m(1, 1) = 0.8;
  const auto result = power_iteration(m, 1000, 1e-12);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalue, 1.0, 1e-9);
  // stationary distribution of this chain is (2/3, 1/3)
  EXPECT_NEAR(result.eigenvector[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.eigenvector[1], 1.0 / 3.0, 1e-6);
}

TEST(DenseTest, PowerIterationRejectsNonSquare) {
  const DenseMatrix m(2, 3);
  EXPECT_THROW(power_iteration(m, 10, 1e-6), util::ConfigError);
}

// ---- norms -----------------------------------------------------------------------

TEST(NormTest, Norm1AndNormalize) {
  EXPECT_DOUBLE_EQ(norm1({1.0, -2.0, 3.0}), 6.0);
  const auto n = normalized1({2.0, 2.0});
  EXPECT_DOUBLE_EQ(n[0], 0.5);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
}

TEST(NormTest, NormalizeZeroVectorUnchanged) {
  const auto n = normalized1({0.0, 0.0});
  EXPECT_DOUBLE_EQ(n[0], 0.0);
}

}  // namespace
}  // namespace prpb::sparse
