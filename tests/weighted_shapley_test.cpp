// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Validation of Theorem 7 (exact weighted KNN Shapley in O(N^K)) and its
// composite-game analog (Theorem 11) against the enumeration oracle.

#include <gtest/gtest.h>

#include <numeric>

#include "core/exact_enumeration.h"
#include "core/exact_knn_shapley.h"
#include "core/weighted_knn_shapley.h"
#include "core/utility.h"
#include "test_util.h"

namespace knnshap {
namespace {

using testing_util::ExpectVectorNear;
using testing_util::RandomClassDataset;
using testing_util::RandomRegDataset;
using testing_util::RankOrder;
using testing_util::SingleQuery;

struct WeightedCase {
  int n;
  int k;
  WeightKernel kernel;
  uint64_t seed;
};

class WeightedClassVsOracleTest : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(WeightedClassVsOracleTest, MatchesEnumeration) {
  auto [n, k, kernel, seed] = GetParam();
  Dataset train = RandomClassDataset(static_cast<size_t>(n), 2, 3, seed);
  Dataset test = SingleQuery(3, seed + 77, 1);
  WeightConfig weights;
  weights.kernel = kernel;
  KnnSubsetUtility utility(&train, &test, k, KnnTask::kWeightedClassification,
                           weights);
  auto oracle = ShapleyByEnumeration(utility);
  WeightedShapleyOptions options;
  options.k = k;
  options.weights = weights;
  options.task = KnnTask::kWeightedClassification;
  auto fast = ExactWeightedKnnShapley(train, test, options, /*parallel=*/false);
  ExpectVectorNear(fast, oracle, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedClassVsOracleTest,
    ::testing::Values(
        WeightedCase{4, 1, WeightKernel::kInverseDistance, 1},
        WeightedCase{6, 2, WeightKernel::kInverseDistance, 2},
        WeightedCase{8, 3, WeightKernel::kInverseDistance, 3},
        WeightedCase{10, 2, WeightKernel::kInverseDistance, 4},
        WeightedCase{7, 1, WeightKernel::kGaussian, 5},
        WeightedCase{9, 3, WeightKernel::kGaussian, 6},
        WeightedCase{8, 2, WeightKernel::kUniform, 7},
        WeightedCase{10, 4, WeightKernel::kInverseDistance, 8},
        WeightedCase{6, 5, WeightKernel::kInverseDistance, 9},   // K = N-1
        WeightedCase{5, 8, WeightKernel::kInverseDistance, 10},  // K > N
        WeightedCase{11, 2, WeightKernel::kGaussian, 11}));

class WeightedRegVsOracleTest : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(WeightedRegVsOracleTest, MatchesEnumeration) {
  auto [n, k, kernel, seed] = GetParam();
  Dataset train = RandomRegDataset(static_cast<size_t>(n), 3, seed);
  Dataset test = SingleQuery(3, seed + 88, 0, /*target=*/-0.4);
  WeightConfig weights;
  weights.kernel = kernel;
  KnnSubsetUtility utility(&train, &test, k, KnnTask::kWeightedRegression, weights);
  auto oracle = ShapleyByEnumeration(utility);
  WeightedShapleyOptions options;
  options.k = k;
  options.weights = weights;
  options.task = KnnTask::kWeightedRegression;
  auto fast = ExactWeightedKnnShapley(train, test, options, /*parallel=*/false);
  ExpectVectorNear(fast, oracle, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedRegVsOracleTest,
    ::testing::Values(WeightedCase{5, 1, WeightKernel::kInverseDistance, 20},
                      WeightedCase{7, 2, WeightKernel::kInverseDistance, 21},
                      WeightedCase{9, 3, WeightKernel::kGaussian, 22},
                      WeightedCase{10, 2, WeightKernel::kUniform, 23},
                      WeightedCase{8, 4, WeightKernel::kInverseDistance, 24}));

TEST(WeightedShapleyTest, GroupRationality) {
  Dataset train = RandomClassDataset(12, 2, 3, 30);
  Dataset test = SingleQuery(3, 31, 0);
  WeightConfig weights;
  weights.kernel = WeightKernel::kInverseDistance;
  WeightedShapleyOptions options;
  options.k = 3;
  options.weights = weights;
  auto sv = ExactWeightedKnnShapley(train, test, options, false);
  KnnSubsetUtility utility(&train, &test, 3, KnnTask::kWeightedClassification,
                           weights);
  EXPECT_NEAR(std::accumulate(sv.begin(), sv.end(), 0.0), utility.GrandValue(), 1e-9);
}

TEST(WeightedShapleyTest, UnweightedTaskReproducesTheorem1) {
  // Running the O(N^K) machinery with the *unweighted* utility must match
  // the O(N log N) recursion — two completely different code paths.
  Dataset train = RandomClassDataset(11, 3, 3, 32);
  Dataset test = SingleQuery(3, 33, 2);
  WeightedShapleyOptions options;
  options.k = 3;
  options.task = KnnTask::kClassification;
  auto slow = ExactWeightedKnnShapley(train, test, options, false);
  auto fast = ExactKnnShapley(train, test, 3, false);
  ExpectVectorNear(slow, fast, 1e-9);
}

TEST(WeightedShapleyTest, MultiTestAveragesSingles) {
  Dataset train = RandomClassDataset(8, 2, 3, 34);
  Dataset test = RandomClassDataset(3, 2, 3, 35);
  WeightConfig weights;
  weights.kernel = WeightKernel::kInverseDistance;
  WeightedShapleyOptions options;
  options.k = 2;
  options.weights = weights;
  auto multi = ExactWeightedKnnShapley(train, test, options, false);
  std::vector<double> manual(train.Size(), 0.0);
  for (size_t j = 0; j < test.Size(); ++j) {
    auto single = ExactWeightedKnnShapleyFromOrder(
        train, RankOrder(train, test.features.Row(j)), test.features.Row(j),
        test.labels[j], 0.0, options);
    for (size_t i = 0; i < train.Size(); ++i) manual[i] += single[i] / 3.0;
  }
  ExpectVectorNear(multi, manual, 1e-10);
}

TEST(WeightedShapleyTest, EvalCountFormulaIsPolynomial) {
  // O(N^K): the predicted evaluation count must grow polynomially, and
  // match the closed form's rough magnitude.
  double small = WeightedShapleyEvalCount(20, 2);
  double big = WeightedShapleyEvalCount(40, 2);
  // Doubling N with K=2 multiplies the count by ~8 (N * N^(K-1) pairs).
  EXPECT_GT(big / small, 4.0);
  EXPECT_LT(big / small, 16.0);
}

// ------------------------- composite game (Theorem 11) --------------------

class CompositeWeightedVsOracleTest : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(CompositeWeightedVsOracleTest, SellerValuesMatchCompositeOracle) {
  auto [n, k, kernel, seed] = GetParam();
  Dataset train = RandomClassDataset(static_cast<size_t>(n), 2, 3, seed);
  Dataset test = SingleQuery(3, seed + 99, 1);
  WeightConfig weights;
  weights.kernel = kernel;
  KnnSubsetUtility base(&train, &test, k, KnnTask::kWeightedClassification, weights);
  CompositeSubsetUtility composite(&base);
  auto oracle = ShapleyByEnumeration(composite);  // N+1 players
  WeightedShapleyOptions options;
  options.k = k;
  options.weights = weights;
  options.task = KnnTask::kWeightedClassification;
  options.composite_game = true;
  auto fast = ExactWeightedKnnShapley(train, test, options, false);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[static_cast<size_t>(i)], oracle[static_cast<size_t>(i)], 1e-9)
        << "seller " << i;
  }
  // Analyst value: nu(I) - sum of sellers must equal the oracle's analyst.
  double sellers = std::accumulate(fast.begin(), fast.end(), 0.0);
  EXPECT_NEAR(base.GrandValue() - sellers, oracle[static_cast<size_t>(n)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompositeWeightedVsOracleTest,
    ::testing::Values(WeightedCase{4, 1, WeightKernel::kInverseDistance, 40},
                      WeightedCase{6, 2, WeightKernel::kInverseDistance, 41},
                      WeightedCase{8, 3, WeightKernel::kGaussian, 42},
                      WeightedCase{9, 2, WeightKernel::kUniform, 43}));

}  // namespace
}  // namespace knnshap
