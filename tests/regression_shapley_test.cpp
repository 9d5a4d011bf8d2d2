// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Validation of Theorem 6: exact Shapley values for unweighted KNN
// regression against the enumeration oracle and the axioms.

#include <gtest/gtest.h>

#include <numeric>

#include "core/exact_enumeration.h"
#include "core/knn_regression_shapley.h"
#include "core/utility.h"
#include "test_util.h"

namespace knnshap {
namespace {

using testing_util::ExpectVectorNear;
using testing_util::RandomRegDataset;
using testing_util::RankOrder;
using testing_util::SingleQuery;

struct RegCase {
  int n;
  int k;
  uint64_t seed;
};

class RegressionVsOracleTest : public ::testing::TestWithParam<RegCase> {};

TEST_P(RegressionVsOracleTest, RecursionMatchesEnumeration) {
  auto [n, k, seed] = GetParam();
  Dataset train = RandomRegDataset(static_cast<size_t>(n), 3, seed);
  Dataset test = SingleQuery(3, seed + 500, 0, /*target=*/0.7);
  KnnSubsetUtility utility(&train, &test, k, KnnTask::kRegression);
  auto oracle = ShapleyByEnumeration(utility);
  auto fast = ExactKnnRegressionShapley(train, test, k, /*parallel=*/false);
  // The oracle's efficiency constant differs by nu(empty) = -y_test^2,
  // which is a constant shared by all coalitions containing at least one
  // player... the SV allocates nu(I) - nu(empty) so the values themselves
  // must match exactly.
  ExpectVectorNear(fast, oracle, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RegressionVsOracleTest,
                         ::testing::Values(RegCase{3, 1, 1}, RegCase{5, 1, 2},
                                           RegCase{6, 2, 3}, RegCase{8, 3, 4},
                                           RegCase{10, 2, 5}, RegCase{10, 4, 6},
                                           RegCase{12, 1, 7}, RegCase{12, 5, 8},
                                           RegCase{7, 6, 9},  // N = K+1 boundary
                                           RegCase{11, 3, 10}));

TEST(RegressionShapleyTest, GroupRationalityWithEmptyOffset) {
  // sum_i s_i = nu(I) - nu(empty) where nu(empty) = -y_test^2.
  Dataset train = RandomRegDataset(20, 4, 20);
  Dataset test = SingleQuery(4, 21, 0, 1.3);
  const int k = 3;
  auto sv = ExactKnnRegressionShapley(train, test, k, false);
  KnnSubsetUtility utility(&train, &test, k, KnnTask::kRegression);
  double total = std::accumulate(sv.begin(), sv.end(), 0.0);
  double expected = utility.GrandValue() - (-1.3 * 1.3);
  EXPECT_NEAR(total, expected, 1e-9);
}

TEST(RegressionShapleyTest, IdenticalTargetsOfAdjacentPointsShareValueDiff) {
  // Eq (63): if y_{alpha_i} = y_{alpha_{i+1}} the two adjacent points have
  // identical SVs.
  std::vector<double> targets = {2.0, 2.0, -1.0, 0.5, 0.5, 3.0};
  auto sv = KnnRegressionShapleyRecursion(targets, 0.2, 2);
  EXPECT_NEAR(sv[0], sv[1], 1e-12);
  EXPECT_NEAR(sv[3], sv[4], 1e-12);
}

TEST(RegressionShapleyTest, PerfectNeighborsBeatHarmfulOnes) {
  // Nearest point predicts the target exactly; a far point is wildly off.
  // The exact SV must rank the accurate near point above the harmful one.
  std::vector<double> targets = {1.0, 1.0, 1.0, 25.0};
  double test_target = 1.0;
  auto sv = KnnRegressionShapleyRecursion(targets, test_target, 1);
  EXPECT_GT(sv[0], sv[3]);
}

TEST(RegressionShapleyTest, MultiTestAveragesSingleTests) {
  Dataset train = RandomRegDataset(15, 3, 30);
  Dataset test = RandomRegDataset(3, 3, 31);
  auto multi = ExactKnnRegressionShapley(train, test, 2, false);
  std::vector<double> manual(train.Size(), 0.0);
  for (size_t j = 0; j < test.Size(); ++j) {
    auto single = ExactKnnRegressionShapleyFromOrder(
        RankOrder(train, test.features.Row(j)), train.targets, test.targets[j], 2);
    for (size_t i = 0; i < train.Size(); ++i) manual[i] += single[i] / 3.0;
  }
  ExpectVectorNear(multi, manual, 1e-12);
}

TEST(RegressionShapleyTest, ParallelMatchesSerial) {
  Dataset train = RandomRegDataset(40, 4, 32);
  Dataset test = RandomRegDataset(6, 4, 33);
  auto serial = ExactKnnRegressionShapley(train, test, 3, false);
  auto parallel = ExactKnnRegressionShapley(train, test, 3, true);
  ExpectVectorNear(serial, parallel, 1e-12);
}

TEST(RegressionShapleyTest, ConstantTargetsSplitEvenlyByDefinition) {
  // All targets equal to the test target: every coalition of size >= K has
  // utility 0, smaller ones partial error; symmetric points (identical
  // target) must all... at minimum, group rationality and sign sanity.
  std::vector<double> targets(10, 2.0);
  auto sv = KnnRegressionShapleyRecursion(targets, 2.0, 2);
  double total = std::accumulate(sv.begin(), sv.end(), 0.0);
  // nu(I) = 0 and nu(empty) = -4 -> total = 4.
  EXPECT_NEAR(total, 4.0, 1e-9);
  for (double s : sv) EXPECT_GT(s, 0.0);
}

TEST(RegressionShapleyTest, K1MatchesDirectFormula) {
  // For K = 1 the recursion collapses to
  // s_i - s_{i+1} = ((y_{i+1}-t)^2 - (y_i-t)^2)/i.
  std::vector<double> targets = {0.5, -1.0, 2.0, 0.0, 4.0};
  double t = 0.25;
  auto sv = KnnRegressionShapleyRecursion(targets, t, 1);
  for (size_t i = 0; i + 1 < targets.size(); ++i) {
    double e_next = (targets[i + 1] - t) * (targets[i + 1] - t);
    double e_cur = (targets[i] - t) * (targets[i] - t);
    EXPECT_NEAR(sv[i] - sv[i + 1], (e_next - e_cur) / static_cast<double>(i + 1),
                1e-12);
  }
}

}  // namespace
}  // namespace knnshap
