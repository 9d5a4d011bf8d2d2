// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Validation of the quadratic-time discretized WKNN-Shapley
// (arXiv:2401.11103 adapted to Eq 26; core/wknn_shapley.h): the counting
// recursion against the enumeration oracle on the *discretized* game, the
// discretization bound against the continuous oracle and the O(N^K)
// Theorem-7 recursion, tie-heavy fixtures, and the deterministic
// truncation budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/exact_enumeration.h"
#include "core/utility.h"
#include "core/weighted_knn_shapley.h"
#include "core/wknn_shapley.h"
#include "test_util.h"
#include "util/binomial.h"

namespace knnshap {
namespace {

using testing_util::ExpectVectorNear;
using testing_util::RandomClassDataset;
using testing_util::RankOrder;
using testing_util::SingleQuery;

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

/// One query's context, from its full LocalRanking.
WknnQueryContext QueryContext(const Dataset& train, std::span<const float> query,
                              int test_label, const WknnShapleyOptions& options) {
  std::vector<double> dists;
  std::vector<int> order = RankOrder(train, query, train.Size(), options.metric, &dists);
  return MakeWknnQueryContextFromRanking(std::move(order), dists, train.labels,
                                         test_label, options);
}

/// One query's SVs through the counting recursion.
std::vector<double> WknnOne(const Dataset& train, std::span<const float> query,
                            int test_label, const WknnShapleyOptions& options) {
  return WknnShapleyFromContext(QueryContext(train, query, test_label, options),
                                options);
}

/// Enumeration oracle over the discretized game nu-hat.
std::vector<double> DiscretizedOracle(const Dataset& train, const Dataset& test,
                                      const WknnShapleyOptions& options) {
  WknnQueryContext ctx =
      QueryContext(train, test.features.Row(0), test.labels[0], options);
  CallableUtility utility(static_cast<int>(train.Size()),
                          [&](std::span<const int> subset) {
                            return WknnDiscretizedUtility(ctx, subset, options.k);
                          });
  return ShapleyByEnumeration(utility);
}

// --- Coalition-weight closed forms ------------------------------------------

TEST(WknnCoalitionWeightsTest, MassesPartitionTheShapleyAverage) {
  // For the closest-ranked point every coalition falls in exactly one
  // group, so the start and group masses must sum to the full Shapley
  // weight: sum_t C(n-1,t) SW(t) + sum_q C(q-2,K-1) GW(q) = 1.
  for (auto [n, k] : {std::pair{5, 1}, {8, 2}, {12, 3}, {30, 3}, {30, 5},
                      {100, 4}, {7, 7}, {5, 9}}) {
    WknnCoalitionWeights weights(n, k);
    double mass = 0.0;
    for (int t = 0; t < weights.K(); ++t) {
      mass += Choose(n - 1, t) * weights.StartWeight(t);
    }
    for (int q = 2; q <= n; ++q) {
      mass += Choose(q - 2, weights.K() - 1) * weights.GroupWeight(q);
    }
    EXPECT_NEAR(mass, 1.0, 1e-12) << "n=" << n << " k=" << k;
  }
}

TEST(WknnCoalitionWeightsTest, TailMassIsMonotoneAndDrivesTruncation) {
  WknnCoalitionWeights weights(200, 3);
  for (int q = 1; q < 200; ++q) {
    EXPECT_GE(weights.TailMass(q) + 1e-15, weights.TailMass(q + 1));
  }
  EXPECT_EQ(weights.TailMass(200), 0.0);
  EXPECT_EQ(weights.TruncationRank(0.0), 200);  // exact mode
  const int coarse = weights.TruncationRank(0.05);
  const int fine = weights.TruncationRank(0.001);
  EXPECT_LE(coarse, fine);
  EXPECT_LT(coarse, 200);  // a real budget truncates a 200-point corpus
  EXPECT_LE(weights.TailMass(coarse), 0.05);
}

// --- Exactness on the discretized game --------------------------------------

struct WknnCase {
  int n;
  int k;
  int bits;
  WeightKernel kernel;
  uint64_t seed;
};

class WknnVsOracleTest : public ::testing::TestWithParam<WknnCase> {};

TEST_P(WknnVsOracleTest, MatchesEnumerationOfDiscretizedGame) {
  auto [n, k, bits, kernel, seed] = GetParam();
  Dataset train = RandomClassDataset(static_cast<size_t>(n), 2, 3, seed);
  Dataset test = SingleQuery(3, seed + 77, 1);
  WknnShapleyOptions options;
  options.k = k;
  options.weight_bits = bits;
  options.weights.kernel = kernel;
  auto oracle = DiscretizedOracle(train, test, options);
  auto fast = WknnOne(train, test.features.Row(0), test.labels[0], options);
  ExpectVectorNear(fast, oracle, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WknnVsOracleTest,
    ::testing::Values(
        WknnCase{4, 1, 3, WeightKernel::kInverseDistance, 1},
        WknnCase{6, 2, 3, WeightKernel::kInverseDistance, 2},
        WknnCase{8, 3, 3, WeightKernel::kInverseDistance, 3},
        WknnCase{10, 2, 2, WeightKernel::kInverseDistance, 4},
        WknnCase{12, 3, 4, WeightKernel::kInverseDistance, 5},
        WknnCase{9, 1, 1, WeightKernel::kGaussian, 6},
        WknnCase{10, 4, 3, WeightKernel::kGaussian, 7},
        WknnCase{8, 2, 6, WeightKernel::kUniform, 8},
        WknnCase{11, 5, 2, WeightKernel::kInverseDistance, 9},
        WknnCase{6, 5, 3, WeightKernel::kInverseDistance, 10},  // K = N-1
        WknnCase{5, 8, 3, WeightKernel::kInverseDistance, 11},  // K > N
        WknnCase{12, 4, 3, WeightKernel::kGaussian, 12}));

TEST(WknnShapleyTest, TieHeavyDuplicateDistancesMatchOracle) {
  // Duplicated rows and mirror-symmetric rows produce runs of identical
  // distances — the regime where a rank-based recursion can disagree with
  // the subset evaluator if the tie order drifts. Pin both the discretized
  // oracle match and the rank order's tie-break-by-index contract.
  Dataset train;
  train.name = "ties";
  train.features = Matrix(10, 2);
  const float rows[10][2] = {{1.f, 0.f}, {0.f, 1.f},  {1.f, 0.f},  {0.f, 1.f},
                             {-1.f, 0.f}, {0.f, -1.f}, {2.f, 0.f},  {0.f, 2.f},
                             {2.f, 0.f},  {1.f, 0.f}};
  train.labels = {1, 0, 0, 1, 1, 0, 1, 0, 1, 1};
  for (size_t i = 0; i < 10; ++i) {
    auto row = train.features.MutableRow(i);
    row[0] = rows[i][0];
    row[1] = rows[i][1];
  }
  Dataset test;
  test.features = Matrix(1, 2);  // equidistant from all four unit points
  test.features.MutableRow(0)[0] = 0.f;
  test.features.MutableRow(0)[1] = 0.f;
  test.labels = {1};

  for (int k : {1, 2, 3, 4}) {
    for (int bits : {1, 2, 3}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " bits=" + std::to_string(bits));
      WknnShapleyOptions options;
      options.k = k;
      options.weight_bits = bits;
      options.weights.kernel = WeightKernel::kInverseDistance;
      auto oracle = DiscretizedOracle(train, test, options);
      auto fast = WknnOne(train, test.features.Row(0), 1, options);
      ExpectVectorNear(fast, oracle, 1e-10);

      WknnQueryContext ctx = QueryContext(train, test.features.Row(0), 1, options);
      for (size_t r = 1; r < 10; ++r) {  // ties must break by row index
        EXPECT_LE(ctx.raw[r], ctx.raw[r - 1] + 1e-12);
      }
    }
  }
}

TEST(WknnShapleyTest, EdgeCases) {
  WknnShapleyOptions options;
  options.k = 2;
  options.weights.kernel = WeightKernel::kInverseDistance;

  // N = 1: the lone point carries its correctness bit.
  Dataset one = RandomClassDataset(1, 2, 3, 21);
  Dataset q = SingleQuery(3, 22, one.labels[0]);
  auto sv = WknnOne(one, q.features.Row(0), one.labels[0], options);
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_NEAR(sv[0], 1.0, 1e-12);
  sv = WknnOne(one, q.features.Row(0), one.labels[0] + 1, options);
  EXPECT_NEAR(sv[0], 0.0, 1e-12);

  // K >= N plays identically to K = N.
  Dataset train = RandomClassDataset(7, 2, 3, 23);
  Dataset test = SingleQuery(3, 24, 1);
  WknnShapleyOptions capped = options;
  capped.k = 7;
  WknnShapleyOptions beyond = options;
  beyond.k = 50;
  auto sv_capped = WknnOne(train, test.features.Row(0), 1, capped);
  auto sv_beyond = WknnOne(train, test.features.Row(0), 1, beyond);
  ExpectVectorNear(sv_beyond, sv_capped, 1e-12);
}

TEST(WknnShapleyTest, EfficiencyAxiomOnDiscretizedGame) {
  // Exact-mode values must sum to nu-hat(grand coalition).
  Dataset train = RandomClassDataset(40, 3, 4, 31);
  Dataset test = SingleQuery(4, 32, 2);
  WknnShapleyOptions options;
  options.k = 4;
  options.weight_bits = 4;
  options.weights.kernel = WeightKernel::kGaussian;
  auto sv = WknnOne(train, test.features.Row(0), 2, options);
  WknnQueryContext ctx = QueryContext(train, test.features.Row(0), 2, options);
  std::vector<int> grand(train.Size());
  std::iota(grand.begin(), grand.end(), 0);
  const double total = std::accumulate(sv.begin(), sv.end(), 0.0);
  EXPECT_NEAR(total, WknnDiscretizedUtility(ctx, grand, options.k), 1e-10);
}

// --- Discretization: bound against the continuous game ----------------------

TEST(WknnDiscretizationTest, WithinBoundOfContinuousOracle) {
  for (uint64_t seed : {41ull, 42ull, 43ull}) {
    Dataset train = RandomClassDataset(10, 2, 3, seed);
    Dataset test = SingleQuery(3, seed + 7, 1);
    WknnShapleyOptions options;
    options.k = 3;
    options.weight_bits = 6;
    options.weights.kernel = WeightKernel::kInverseDistance;

    WeightConfig weights;
    weights.kernel = WeightKernel::kInverseDistance;
    KnnSubsetUtility continuous(&train, &test, options.k,
                                KnnTask::kWeightedClassification, weights);
    auto oracle = ShapleyByEnumeration(continuous);
    auto fast = WknnOne(train, test.features.Row(0), test.labels[0], options);

    WknnQueryContext ctx =
        QueryContext(train, test.features.Row(0), test.labels[0], options);
    const double bound = WknnDiscretizationBound(ctx, options.k);
    EXPECT_LE(MaxAbsDiff(fast, oracle), bound + 1e-12) << "seed " << seed;
    EXPECT_LT(bound, 0.2);  // 6 bits track the continuous weights closely
  }
}

TEST(WknnDiscretizationTest, BoundShrinksAsBitsGrow) {
  Dataset train = RandomClassDataset(12, 2, 3, 51);
  Dataset test = SingleQuery(3, 58, 0);
  WknnShapleyOptions options;
  options.k = 3;
  options.weights.kernel = WeightKernel::kInverseDistance;
  double previous = 1e9;
  for (int bits : {1, 3, 5, 7}) {
    options.weight_bits = bits;
    WknnQueryContext ctx = QueryContext(train, test.features.Row(0), 0, options);
    const double bound = WknnDiscretizationBound(ctx, options.k);
    EXPECT_LE(bound, previous + 1e-12);
    previous = bound;
  }
  EXPECT_LT(previous, 0.02);  // 7 bits: the grid is visually continuous
}

// --- Against the O(N^K) Theorem-7 recursion ---------------------------------

TEST(WknnVsTheorem7Test, MatchesWithinDiscretizationBound) {
  struct Shape {
    int n;
    int k;
  };
  for (auto [n, k] : {Shape{200, 2}, Shape{80, 3}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    Dataset train = RandomClassDataset(static_cast<size_t>(n), 2, 4, 61);
    Dataset test = SingleQuery(4, 67, 1);

    WeightedShapleyOptions exact_options;
    exact_options.k = k;
    exact_options.weights.kernel = WeightKernel::kInverseDistance;
    exact_options.task = KnnTask::kWeightedClassification;
    auto theorem7 = ExactWeightedKnnShapleyFromOrder(
        train, RankOrder(train, test.features.Row(0)), test.features.Row(0),
        /*test_label=*/1, /*test_target=*/0.0, exact_options);

    WknnShapleyOptions options;
    options.k = k;
    options.weight_bits = 7;
    options.weights.kernel = WeightKernel::kInverseDistance;
    auto fast = WknnOne(train, test.features.Row(0), /*test_label=*/1, options);

    WknnQueryContext ctx = QueryContext(train, test.features.Row(0), 1, options);
    const double bound = WknnDiscretizationBound(ctx, k);
    EXPECT_LE(MaxAbsDiff(fast, theorem7), bound + 1e-12);
  }
}

// --- Deterministic approximation --------------------------------------------

TEST(WknnApproximationTest, TruncationRespectsTheBudget) {
  Dataset train = RandomClassDataset(150, 2, 4, 71);
  Dataset test = SingleQuery(4, 72, 1);
  WknnShapleyOptions options;
  options.k = 3;
  options.weights.kernel = WeightKernel::kInverseDistance;
  auto exact = WknnOne(train, test.features.Row(0), 1, options);

  WknnCoalitionWeights weights(150, 3);
  int previous_rank = 0;
  for (double budget : {0.05, 0.01, 0.002}) {
    SCOPED_TRACE(budget);
    options.approx_error = budget;
    auto approx = WknnOne(train, test.features.Row(0), 1, options);
    EXPECT_LE(MaxAbsDiff(approx, exact), budget + 1e-12);
    // Tighter budgets look farther down the ranking.
    const int rank = weights.TruncationRank(budget);
    EXPECT_GE(rank, previous_rank);
    previous_rank = rank;
  }
  EXPECT_GT(previous_rank, weights.TruncationRank(0.05));

  // A budget below the smallest tail step reproduces the exact values.
  options.approx_error = 1e-300;
  auto tight = WknnOne(train, test.features.Row(0), 1, options);
  ExpectVectorNear(tight, exact, 0.0);
}

// --- Multi-query averaging + determinism ------------------------------------

TEST(WknnShapleyTest, ParallelMatchesSerialBitwise) {
  Dataset train = RandomClassDataset(60, 2, 4, 81);
  Dataset test = RandomClassDataset(6, 2, 4, 82);
  WknnShapleyOptions options;
  options.k = 3;
  options.weights.kernel = WeightKernel::kGaussian;
  auto serial = WknnShapley(train, test, options, /*parallel=*/false);
  auto parallel = WknnShapley(train, test, options, /*parallel=*/true);
  EXPECT_EQ(serial, parallel);  // bitwise: merge order is query order
}

}  // namespace
}  // namespace knnshap
