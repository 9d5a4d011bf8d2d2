// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Validation of Theorem 1 / Algorithm 1: the O(N log N) exact KNN Shapley
// recursion against the 2^N enumeration oracle, the closed form (Eq 44-46),
// the piecewise-counting framework, and the Shapley axioms.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "core/corrected_knn_shapley.h"
#include "core/exact_enumeration.h"
#include "core/exact_knn_shapley.h"
#include "core/knn_regression_shapley.h"
#include "core/piecewise.h"
#include "core/utility.h"
#include "test_util.h"
#include "util/binomial.h"
#include "util/random.h"
#include "util/stats.h"

namespace knnshap {
namespace {

using testing_util::ExpectVectorNear;
using testing_util::RandomClassDataset;
using testing_util::RankOrder;
using testing_util::SingleQuery;

struct OracleCase {
  int n;
  int k;
  int num_classes;
  uint64_t seed;
};

class ExactVsOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ExactVsOracleTest, RecursionMatchesEnumeration) {
  auto [n, k, num_classes, seed] = GetParam();
  Dataset train = RandomClassDataset(static_cast<size_t>(n), num_classes, 3, seed);
  Dataset test = SingleQuery(3, seed + 1000,
                             /*label=*/static_cast<int>(seed % num_classes));
  KnnSubsetUtility utility(&train, &test, k, KnnTask::kClassification);
  auto oracle = ShapleyByEnumeration(utility);
  auto fast = ExactKnnShapley(train, test, k, /*parallel=*/false);
  ExpectVectorNear(fast, oracle, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactVsOracleTest,
    ::testing::Values(OracleCase{2, 1, 2, 1}, OracleCase{5, 1, 2, 2},
                      OracleCase{8, 1, 2, 3}, OracleCase{8, 3, 2, 4},
                      OracleCase{10, 2, 3, 5}, OracleCase{10, 5, 3, 6},
                      OracleCase{12, 3, 4, 7}, OracleCase{12, 7, 2, 8},
                      OracleCase{9, 9, 2, 9},    // K == N
                      OracleCase{6, 10, 2, 10},  // K > N
                      OracleCase{11, 1, 5, 11}, OracleCase{12, 4, 2, 12}));

TEST(ExactShapleyTest, MultiTestIsAverageOfSingleTests) {
  Dataset train = RandomClassDataset(9, 2, 3, 20);
  Dataset test = RandomClassDataset(4, 2, 3, 21);
  auto multi = ExactKnnShapley(train, test, 2, /*parallel=*/false);
  std::vector<double> manual(train.Size(), 0.0);
  for (size_t j = 0; j < test.Size(); ++j) {
    auto single = ExactKnnShapleyFromOrder(RankOrder(train, test.features.Row(j)),
                                           train.labels, test.labels[j], 2);
    for (size_t i = 0; i < train.Size(); ++i) manual[i] += single[i] / 4.0;
  }
  ExpectVectorNear(multi, manual, 1e-12);
}

TEST(ExactShapleyTest, ParallelMatchesSerial) {
  Dataset train = RandomClassDataset(50, 3, 4, 22);
  Dataset test = RandomClassDataset(8, 3, 4, 23);
  auto serial = ExactKnnShapley(train, test, 3, /*parallel=*/false);
  auto parallel = ExactKnnShapley(train, test, 3, /*parallel=*/true);
  ExpectVectorNear(serial, parallel, 1e-12);
}

TEST(ExactShapleyTest, GroupRationalityHoldsExactly) {
  for (uint64_t seed : {30u, 31u, 32u}) {
    Dataset train = RandomClassDataset(40, 3, 4, seed);
    Dataset test = RandomClassDataset(5, 3, 4, seed + 100);
    for (int k : {1, 3, 7}) {
      auto sv = ExactKnnShapley(train, test, k, false);
      KnnSubsetUtility utility(&train, &test, k, KnnTask::kClassification);
      double total = std::accumulate(sv.begin(), sv.end(), 0.0);
      EXPECT_NEAR(total, utility.GrandValue(), 1e-9)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(ExactShapleyTest, ClosedFormMatchesRecursion) {
  Rng rng(40);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 2 + static_cast<int>(rng.NextIndex(60));
    int k = 1 + static_cast<int>(rng.NextIndex(10));
    std::vector<int> labels(static_cast<size_t>(n));
    for (auto& l : labels) l = static_cast<int>(rng.NextIndex(3));
    int test_label = static_cast<int>(rng.NextIndex(3));
    auto rec = KnnShapleyRecursion(labels, test_label, k);
    auto closed = KnnShapleyClosedForm(labels, test_label, k);
    ExpectVectorNear(rec, closed, 1e-12);
  }
}

TEST(ExactShapleyTest, AllCorrectLabelsGiveHarmonicLikeDecay) {
  // When every training label matches the test label, Eq (45)-(46) give
  // strictly positive values, non-increasing in rank.
  std::vector<int> labels(20, 1);
  auto sv = KnnShapleyRecursion(labels, 1, 3);
  for (size_t i = 0; i < sv.size(); ++i) {
    EXPECT_GT(sv[i], 0.0);
    if (i > 0) {
      EXPECT_LE(sv[i], sv[i - 1] + 1e-15);
    }
  }
  // Group rationality: total = nu(I) = 1 (all neighbors correct).
  EXPECT_NEAR(std::accumulate(sv.begin(), sv.end(), 0.0), 1.0, 1e-12);
}

TEST(ExactShapleyTest, AllWrongLabelsGiveZero) {
  std::vector<int> labels(15, 0);
  auto sv = KnnShapleyRecursion(labels, 1, 3);
  for (double s : sv) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ExactShapleyTest, NearestWrongNeighborHasMostNegativeValue) {
  // One wrong point at rank 1, all others correct: the wrong point should
  // carry the (single) most negative value.
  std::vector<int> labels(12, 1);
  labels[0] = 0;
  auto sv = KnnShapleyRecursion(labels, 1, 3);
  for (size_t i = 1; i < sv.size(); ++i) EXPECT_LT(sv[0], sv[i]);
  EXPECT_LT(sv[0], 0.0);
}

TEST(ExactShapleyTest, SingletonTrainingSet) {
  std::vector<int> labels = {1};
  auto sv = KnnShapleyRecursion(labels, 1, 1);
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_DOUBLE_EQ(sv[0], 1.0);  // nu(I) = 1, one player takes it all
  auto sv_wrong = KnnShapleyRecursion({0}, 1, 1);
  EXPECT_DOUBLE_EQ(sv_wrong[0], 0.0);
}

TEST(ExactShapleyTest, DuplicateDistancesStillMatchOracle) {
  // Several identical feature rows force the tie-break path.
  Dataset train;
  train.features = Matrix(8, 2);
  for (size_t i = 0; i < 8; ++i) {
    train.features.At(i, 0) = static_cast<float>(i / 3);  // triples of duplicates
    train.features.At(i, 1) = 0.0f;
  }
  train.labels = {1, 0, 1, 0, 1, 0, 1, 0};
  Dataset test;
  test.features = Matrix(1, 2);
  test.features.At(0, 0) = -1.0f;
  test.labels = {1};
  KnnSubsetUtility utility(&train, &test, 2, KnnTask::kClassification);
  auto oracle = ShapleyByEnumeration(utility);
  auto fast = ExactKnnShapley(train, test, 2, false);
  // With ties the oracle's "sort by (distance, index)" convention matches
  // the library's deterministic tie-break, so values agree exactly.
  ExpectVectorNear(fast, oracle, 1e-10);
}

TEST(ExactShapleyTest, ValueMagnitudeBound) {
  // |s_alpha_i| <= min(1/i, 1/K) (the bound behind Theorem 2).
  Rng rng(50);
  for (int trial = 0; trial < 10; ++trial) {
    int n = 30;
    int k = 1 + static_cast<int>(rng.NextIndex(6));
    std::vector<int> labels(static_cast<size_t>(n));
    for (auto& l : labels) l = static_cast<int>(rng.NextIndex(2));
    auto sv = KnnShapleyRecursion(labels, 1, k);
    for (int i = 1; i <= n; ++i) {
      double bound = std::min(1.0 / i, 1.0 / k) + 1e-12;
      EXPECT_LE(std::fabs(sv[static_cast<size_t>(i - 1)]), bound)
          << "i=" << i << " k=" << k;
    }
  }
}

// ------------------------------ piecewise framework cross-validation ------

TEST(PiecewiseTest, ReproducesTheorem1Difference) {
  // Theorem 1's SV difference re-derived through the generic counting
  // reduction (Eq 29-31) with S_1 of Eq (100).
  const int n = 14;
  for (int k : {1, 2, 4}) {
    std::vector<int> labels(static_cast<size_t>(n));
    Rng rng(60 + static_cast<uint64_t>(k));
    for (auto& l : labels) l = static_cast<int>(rng.NextIndex(2));
    auto sv = KnnShapleyRecursion(labels, 1, k);
    for (int i = 1; i < n; ++i) {
      double c1 = ((labels[static_cast<size_t>(i - 1)] == 1 ? 1.0 : 0.0) -
                   (labels[static_cast<size_t>(i)] == 1 ? 1.0 : 0.0)) /
                  k;
      PiecewiseGroup group;
      group.coefficient = c1;
      group.size_counts = UnweightedKnnGroupCounts(n, k, i);
      double diff = ShapleyDifferenceFromPiecewise(n, {group});
      EXPECT_NEAR(diff, sv[static_cast<size_t>(i - 1)] - sv[static_cast<size_t>(i)],
                  1e-10)
          << "i=" << i << " k=" << k;
    }
  }
}

TEST(PiecewiseTest, ReproducesTheorem6RegressionDifference) {
  // Appendix F instantiates the piecewise framework for regression (Eq
  // 101) with T = N-1 groups: the "pair" group S_1 of Eq (100) with
  // coefficient (1/K)(y_{i+1}-y_i)((y_i+y_{i+1})/K - 2 y_test), plus for
  // every other point l a group S_l = S_1 n {S : l in S} with coefficient
  // (2/K^2)(y_{i+1}-y_i) y_l. Re-derive Theorem 6's adjacent difference
  // through the generic counting engine.
  const int n = 10;
  const double y_test = 0.35;
  for (int k : {1, 2, 3}) {
    Rng rng(80 + static_cast<uint64_t>(k));
    std::vector<double> y(static_cast<size_t>(n));
    for (auto& t : y) t = rng.NextGaussian();
    auto sv = KnnRegressionShapleyRecursion(y, y_test, k);
    auto yy = [&](int rank) { return y[static_cast<size_t>(rank - 1)]; };
    for (int i = 1; i < n; ++i) {
      std::vector<PiecewiseGroup> groups;
      PiecewiseGroup pair;
      pair.coefficient = (yy(i + 1) - yy(i)) / k *
                         ((yy(i) + yy(i + 1)) / k - 2.0 * y_test);
      pair.size_counts = UnweightedKnnGroupCounts(n, k, i);
      groups.push_back(std::move(pair));
      for (int l = 1; l <= n; ++l) {
        if (l == i || l == i + 1) continue;
        PiecewiseGroup gl;
        gl.coefficient = 2.0 / (static_cast<double>(k) * k) * (yy(i + 1) - yy(i)) *
                         yy(l);
        // Counts of S with S in S_1, |S| = size, and l among the top-(K-1)
        // elements of S (Eq 101's group, with the rank constraint the
        // appendix leaves implicit). For l < i the S_1 condition (m <= K-1
        // elements before i, including l) already implies l's within-S
        // rank <= K-1. For l > i+1, the elements of S before l — m among
        // ranks < i plus q among ranks (i+1, l) — must number <= K-2.
        std::vector<double> counts(static_cast<size_t>(n - 1), 0.0);
        for (int size = 1; size <= n - 2; ++size) {
          double total = 0.0;
          if (l < i) {
            for (int m = 1; m <= std::min(k - 1, size); ++m) {
              total += Choose(i - 2, m - 1) * Choose(n - i - 1, size - m);
            }
          } else {
            for (int m = 0; m <= std::min(k - 2, size - 1); ++m) {
              for (int q = 0; q <= k - 2 - m && q <= size - 1 - m; ++q) {
                total += Choose(i - 1, m) * Choose(l - i - 2, q) *
                         Choose(n - l, size - 1 - m - q);
              }
            }
          }
          counts[static_cast<size_t>(size)] = total;
        }
        gl.size_counts = std::move(counts);
        groups.push_back(std::move(gl));
      }
      double diff = ShapleyDifferenceFromPiecewise(n, groups);
      EXPECT_NEAR(diff, sv[static_cast<size_t>(i - 1)] - sv[static_cast<size_t>(i)],
                  1e-9)
          << "i=" << i << " k=" << k;
    }
  }
}

TEST(PiecewiseTest, ZeroCoefficientGivesZeroDifference) {
  PiecewiseGroup group;
  group.coefficient = 0.0;
  group.size_counts = {1.0, 5.0, 3.0};
  EXPECT_DOUBLE_EQ(ShapleyDifferenceFromPiecewise(10, {group}), 0.0);
}

// ---------------------------------------- axioms on the KNN utility -------

TEST(ExactShapleyTest, SymmetryForIdenticalPoints) {
  // Two byte-identical training points with the same label are equivalent
  // players and must receive equal values... up to the tie-break, which the
  // SV smooths out because the utility treats them identically.
  Dataset train = RandomClassDataset(10, 2, 3, 70);
  // Make rows 3 and 7 identical (same label too).
  for (size_t d = 0; d < 3; ++d) {
    train.features.At(7, d) = train.features.At(3, d);
  }
  train.labels[7] = train.labels[3];
  Dataset test = SingleQuery(3, 71, train.labels[3]);
  KnnSubsetUtility utility(&train, &test, 3, KnnTask::kClassification);
  auto oracle = ShapleyByEnumeration(utility);
  EXPECT_NEAR(oracle[3], oracle[7], 1e-10);
  // The O(N log N) algorithm must agree with the oracle on those players.
  auto fast = ExactKnnShapley(train, test, 3, false);
  EXPECT_NEAR(fast[3], oracle[3], 1e-10);
  EXPECT_NEAR(fast[7], oracle[7], 1e-10);
}

// ---------------------------------------------------------------------------
// Rank-space folds: bit-identical to the dense oracles merged in query order
// ---------------------------------------------------------------------------

// One seeded fold case: an N-row corpus with `classes` labels, and Q
// queries whose orders rank rows by distances drawn from `levels` values,
// so many rows tie and fall back to index order.
struct FoldCase {
  size_t n;
  int k;
  int classes;
  int levels;
  uint64_t seed;
};

std::vector<int> TiedOrder(size_t n, int levels, Rng& rng) {
  std::vector<int> level(n);
  for (auto& l : level) l = static_cast<int>(rng.NextIndex(static_cast<uint64_t>(levels)));
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return level[a] < level[b]; });
  return order;
}

// The accumulator as the engine built it before the folds: dense per-query
// vectors added element-wise, in query order, from +0.0.
void AddDense(std::vector<double>* acc, const std::vector<double>& dense) {
  for (size_t i = 0; i < acc->size(); ++i) (*acc)[i] += dense[i];
}

std::vector<double> ScatterRanks(std::span<const int> order,
                                 const std::vector<double>& by_rank, size_t n) {
  std::vector<double> dense(n, 0.0);
  for (size_t i = 0; i < order.size(); ++i) dense[static_cast<size_t>(order[i])] = by_rank[i];
  return dense;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << " row " << i << ": " << a[i] << " vs " << b[i];
  }
}

TEST(RankSpaceFoldTest, FoldsMatchTheDenseOraclesBitForBit) {
  const std::vector<FoldCase> cases = {
      {1, 1, 2, 1, 1},     {1, 5, 2, 1, 2},     {2, 1, 2, 2, 3},
      {2, 3, 2, 1, 4},     {7, 3, 1, 3, 5},     // one label: every row matches
      {9, 12, 3, 2, 6},    {40, 5, 3, 4, 7},    {40, 40, 2, 3, 8},
      {300, 5, 3, 6, 9},   {300, 1, 2, 300, 10}, {1000, 7, 4, 9, 11},
      // 255 labels still fit the byte codes (the absent label takes code
      // 255); 300 fall back to the int labels.
      {600, 3, 255, 20, 12}, {900, 4, 300, 50, 13},
  };
  for (const FoldCase& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " classes=" + std::to_string(c.classes));
    Rng rng(c.seed);
    std::vector<int> labels(c.n);
    for (auto& l : labels) {
      l = static_cast<int>(rng.NextIndex(static_cast<uint64_t>(c.classes)));
    }
    const FoldLabels fold_labels(labels);
    const std::vector<double> exact_steps = ExactKnnShapleySteps(c.n, c.k);
    const std::vector<double> corrected_steps = CorrectedKnnShapleySteps(c.n, c.k);
    std::vector<double> exact_dense(c.n, 0.0), exact_fold(c.n, 0.0);
    std::vector<double> corrected_dense(c.n, 0.0), corrected_fold(c.n, 0.0);
    std::vector<double> truncated_dense(c.n, 0.0), truncated_fold(c.n, 0.0);
    // Query label c.classes matches no row at all.
    for (int test_label = 0; test_label <= c.classes; ++test_label) {
      for (int q = 0; q < 3; ++q) {
        const std::vector<int> order = TiedOrder(c.n, c.levels, rng);
        std::vector<int> sorted_labels(c.n);
        for (size_t i = 0; i < c.n; ++i) sorted_labels[i] = labels[order[i]];

        AddDense(&exact_dense,
                 ScatterRanks(order, KnnShapleyRecursion(sorted_labels, test_label, c.k),
                              c.n));
        FoldExactKnnShapley(order, fold_labels, test_label, c.k, exact_steps,
                            exact_fold);
        AddDense(&corrected_dense,
                 ScatterRanks(order,
                              CorrectedKnnShapleyRecursion(sorted_labels, test_label, c.k),
                              c.n));
        FoldCorrectedKnnShapley(order, fold_labels, test_label, c.k, corrected_steps,
                                corrected_fold);
        // The truncated path needs a prefix shorter than the corpus.
        const size_t r = TruncatedExactEffectiveRank(
            std::max<size_t>(1, c.n / 3), c.n, c.k);
        if (r < c.n) {
          const std::span<const int> prefix(order.data(), r);
          AddDense(&truncated_dense, TruncatedExactKnnShapleyFromOrder(
                                         prefix, labels, test_label, c.k, c.n));
          FoldTruncatedExactKnnShapley(prefix, labels, test_label, c.k, truncated_fold);
        }
      }
    }
    const std::string name = "n=" + std::to_string(c.n) + " k=" + std::to_string(c.k);
    ExpectSameBits(exact_dense, exact_fold, "exact " + name);
    ExpectSameBits(corrected_dense, corrected_fold, "corrected " + name);
    ExpectSameBits(truncated_dense, truncated_fold, "truncated " + name);
  }
}

TEST(RankSpaceFoldTest, ExactFoldMatchesTheFromOrderEntryPoint) {
  // The dense entry point the engine used to call, merged over queries.
  const Dataset train = RandomClassDataset(120, 3, 3, 41);
  const Dataset test = RandomClassDataset(5, 3, 3, 42);
  const std::vector<double> steps = ExactKnnShapleySteps(train.Size(), 4);
  std::vector<double> dense(train.Size(), 0.0), fold(train.Size(), 0.0);
  for (size_t j = 0; j < test.Size(); ++j) {
    const std::vector<int> order = RankOrder(train, test.features.Row(j));
    AddDense(&dense, ExactKnnShapleyFromOrder(order, train.labels, test.labels[j], 4));
    FoldExactKnnShapley(order, FoldLabels(train.labels), test.labels[j], 4, steps,
                        fold);
  }
  ExpectSameBits(dense, fold, "exact from order");
}

}  // namespace
}  // namespace knnshap
