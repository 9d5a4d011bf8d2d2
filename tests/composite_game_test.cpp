// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Validation of Theorems 9-11 (composite data+analyst game for unweighted
// and weighted KNN classification/regression) against the enumeration oracle
// on the (N+1)-player composite game, plus the paper's structural claims
// (Eq 88-89 ratios, analyst share >= 1/2).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/composite_game.h"
#include "knn/neighbors.h"
#include "core/exact_enumeration.h"
#include "core/exact_knn_shapley.h"
#include "core/knn_regression_shapley.h"
#include "core/utility.h"
#include "test_util.h"

namespace knnshap {
namespace {

using testing_util::ExpectVectorNear;
using testing_util::RandomClassDataset;
using testing_util::RandomRegDataset;
using testing_util::SingleQuery;

struct CompositeCase {
  int n;
  int k;
  uint64_t seed;
};

class CompositeClassVsOracleTest : public ::testing::TestWithParam<CompositeCase> {};

TEST_P(CompositeClassVsOracleTest, MatchesCompositeOracle) {
  auto [n, k, seed] = GetParam();
  Dataset train = RandomClassDataset(static_cast<size_t>(n), 2, 3, seed);
  Dataset test = SingleQuery(3, seed + 7, 1);
  KnnSubsetUtility base(&train, &test, k, KnnTask::kClassification);
  CompositeSubsetUtility composite(&base);
  auto oracle = ShapleyByEnumeration(composite);
  auto result = CompositeKnnShapley(train, test, k, /*parallel=*/false);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(result.seller_values[static_cast<size_t>(i)],
                oracle[static_cast<size_t>(i)], 1e-9)
        << "seller " << i;
  }
  EXPECT_NEAR(result.analyst_value, oracle[static_cast<size_t>(n)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompositeClassVsOracleTest,
    ::testing::Values(CompositeCase{2, 1, 1}, CompositeCase{5, 1, 2},
                      CompositeCase{8, 2, 3}, CompositeCase{10, 3, 4},
                      CompositeCase{11, 1, 5}, CompositeCase{12, 5, 6},
                      CompositeCase{9, 9, 7},    // K = N
                      CompositeCase{6, 11, 8},   // K > N
                      CompositeCase{12, 2, 9}));

class CompositeRegVsOracleTest : public ::testing::TestWithParam<CompositeCase> {};

TEST_P(CompositeRegVsOracleTest, MatchesCompositeOracle) {
  auto [n, k, seed] = GetParam();
  Dataset train = RandomRegDataset(static_cast<size_t>(n), 3, seed);
  Dataset test = SingleQuery(3, seed + 9, 0, /*target=*/0.8);
  KnnSubsetUtility base(&train, &test, k, KnnTask::kRegression);
  CompositeSubsetUtility composite(&base);
  auto oracle = ShapleyByEnumeration(composite);
  auto result = CompositeKnnRegressionShapley(train, test, k, false);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(result.seller_values[static_cast<size_t>(i)],
                oracle[static_cast<size_t>(i)], 1e-9)
        << "seller " << i;
  }
  EXPECT_NEAR(result.analyst_value, oracle[static_cast<size_t>(n)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompositeRegVsOracleTest,
                         ::testing::Values(CompositeCase{4, 1, 20},
                                           CompositeCase{6, 2, 21},
                                           CompositeCase{8, 3, 22},
                                           CompositeCase{10, 2, 23},
                                           CompositeCase{12, 4, 24},
                                           CompositeCase{7, 6, 25}));  // N = K+1

// Theorem 11: the weighted composite game, classification and regression,
// under both non-uniform weight kernels.
struct CompositeWeightedCase {
  int n;
  int k;
  KnnTask task;
  WeightKernel kernel;
  uint64_t seed;
};

class CompositeWeightedVsOracleTest
    : public ::testing::TestWithParam<CompositeWeightedCase> {};

TEST_P(CompositeWeightedVsOracleTest, MatchesCompositeOracle) {
  auto [n, k, task, kernel, seed] = GetParam();
  const bool regression = task == KnnTask::kWeightedRegression;
  Dataset train = regression
                      ? RandomRegDataset(static_cast<size_t>(n), 3, seed)
                      : RandomClassDataset(static_cast<size_t>(n), 2, 3, seed);
  Dataset test = regression ? SingleQuery(3, seed + 9, 0, /*target=*/0.8)
                            : SingleQuery(3, seed + 7, 1);
  WeightConfig weights;
  weights.kernel = kernel;
  KnnSubsetUtility base(&train, &test, k, task, weights);
  CompositeSubsetUtility composite(&base);
  auto oracle = ShapleyByEnumeration(composite);
  auto result = CompositeWeightedKnnShapley(train, test, k, weights, task,
                                            /*parallel=*/false);
  ASSERT_EQ(result.seller_values.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(result.seller_values[static_cast<size_t>(i)],
                oracle[static_cast<size_t>(i)], 1e-9)
        << "seller " << i;
  }
  EXPECT_NEAR(result.analyst_value, oracle[static_cast<size_t>(n)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompositeWeightedVsOracleTest,
    ::testing::Values(
        CompositeWeightedCase{3, 1, KnnTask::kWeightedClassification,
                              WeightKernel::kInverseDistance, 80},
        CompositeWeightedCase{6, 2, KnnTask::kWeightedClassification,
                              WeightKernel::kInverseDistance, 81},
        CompositeWeightedCase{8, 3, KnnTask::kWeightedClassification,
                              WeightKernel::kGaussian, 82},
        CompositeWeightedCase{10, 2, KnnTask::kWeightedClassification,
                              WeightKernel::kGaussian, 83},
        CompositeWeightedCase{4, 5, KnnTask::kWeightedClassification,
                              WeightKernel::kInverseDistance, 84},  // K > N
        CompositeWeightedCase{3, 1, KnnTask::kWeightedRegression,
                              WeightKernel::kGaussian, 85},
        CompositeWeightedCase{6, 2, KnnTask::kWeightedRegression,
                              WeightKernel::kInverseDistance, 86},
        CompositeWeightedCase{8, 3, KnnTask::kWeightedRegression,
                              WeightKernel::kGaussian, 87},
        CompositeWeightedCase{10, 2, KnnTask::kWeightedRegression,
                              WeightKernel::kInverseDistance, 88},
        CompositeWeightedCase{5, 5, KnnTask::kWeightedRegression,
                              WeightKernel::kGaussian, 89}));  // K = N

TEST(CompositeGameTest, SellerRatioMatchesEquation89) {
  // Eq (89): adjacent-difference ratio between composite and data-only
  // games is (min(i,K)+1)/(2(i+1)).
  Dataset train = RandomClassDataset(20, 2, 3, 30);
  Dataset test = SingleQuery(3, 31, 1);
  const int k = 3;
  auto order = ArgsortByDistance(train.features, test.features.Row(0));
  std::vector<int> sorted_labels(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_labels[i] = train.labels[static_cast<size_t>(order[i])];
  }
  auto data_only = KnnShapleyRecursion(sorted_labels, 1, k);
  auto composite = CompositeKnnShapleyRecursion(sorted_labels, 1, k);
  for (int i = 1; i < 20; ++i) {
    double d_data = data_only[static_cast<size_t>(i - 1)] - data_only[static_cast<size_t>(i)];
    double d_comp = composite[static_cast<size_t>(i - 1)] - composite[static_cast<size_t>(i)];
    double ratio = (std::min(i, k) + 1.0) / (2.0 * (i + 1.0));
    EXPECT_NEAR(d_comp, d_data * ratio, 1e-12) << "i=" << i;
  }
}

TEST(CompositeGameTest, AnalystTakesAtLeastHalf) {
  // Sec E.4.1: "the analyst obtains at least one half of the total revenue
  // in the composite game" (for the unweighted classifier utility).
  for (uint64_t seed : {40u, 41u, 42u}) {
    Dataset train = RandomClassDataset(30, 2, 4, seed);
    Dataset test = RandomClassDataset(5, 2, 4, seed + 100);
    auto result = CompositeKnnShapley(train, test, 3, false);
    if (result.total_utility > 0.0) {
      EXPECT_GE(result.analyst_value, 0.5 * result.total_utility - 1e-9);
    }
  }
}

TEST(CompositeGameTest, SellersCollectivelyEarnLessThanDataOnlyGame) {
  // The sellers' collective share in the composite game is at most their
  // data-only total nu(I) — the analyst absorbs at least half (Eq 88-89
  // ratios are <= 1/2).
  Dataset train = RandomClassDataset(25, 2, 3, 50);
  Dataset test = RandomClassDataset(4, 2, 3, 51);
  auto data_only = ExactKnnShapley(train, test, 3, false);
  auto composite = CompositeKnnShapley(train, test, 3, false);
  double total_data_only =
      std::accumulate(data_only.begin(), data_only.end(), 0.0);
  double total_composite = std::accumulate(composite.seller_values.begin(),
                                           composite.seller_values.end(), 0.0);
  EXPECT_LE(total_composite, 0.5 * total_data_only + 1e-9);
}

TEST(CompositeGameTest, GroupRationalityIncludesAnalyst) {
  Dataset train = RandomClassDataset(18, 3, 4, 60);
  Dataset test = RandomClassDataset(3, 3, 4, 61);
  auto result = CompositeKnnShapley(train, test, 2, false);
  double total = result.analyst_value +
                 std::accumulate(result.seller_values.begin(),
                                 result.seller_values.end(), 0.0);
  EXPECT_NEAR(total, result.total_utility, 1e-9);
}

TEST(CompositeGameTest, RegressionGroupRationalityIncludesAnalyst) {
  Dataset train = RandomRegDataset(15, 3, 62);
  Dataset test = RandomRegDataset(3, 3, 63);
  auto result = CompositeKnnRegressionShapley(train, test, 2, false);
  double total = result.analyst_value +
                 std::accumulate(result.seller_values.begin(),
                                 result.seller_values.end(), 0.0);
  // In the composite game nu_c(empty) = 0, so totals must match exactly.
  EXPECT_NEAR(total, result.total_utility, 1e-9);
}

TEST(CompositeGameTest, ParallelMatchesSerial) {
  Dataset train = RandomClassDataset(40, 2, 4, 70);
  Dataset test = RandomClassDataset(6, 2, 4, 71);
  auto serial = CompositeKnnShapley(train, test, 2, false);
  auto parallel = CompositeKnnShapley(train, test, 2, true);
  ExpectVectorNear(serial.seller_values, parallel.seller_values, 1e-12);
  EXPECT_NEAR(serial.analyst_value, parallel.analyst_value, 1e-12);
}

}  // namespace
}  // namespace knnshap
