// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Pins the corrected KNN-Shapley recursion (Wang & Jia, arXiv:2304.04258)
// against brute-force subset enumeration of the corrected utility
//   nu(S) = (1/min(K,|S|)) sum_{j<=min(K,|S|)} 1[y_{alpha_j(S)} = y],
//   nu(emptyset) = 0,
// on oracle-sized fixtures, and checks the engine-registered
// "exact-corrected" method routes to the same values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "core/corrected_knn_shapley.h"
#include "core/exact_enumeration.h"
#include "core/exact_knn_shapley.h"
#include "core/utility.h"
#include "engine/engine.h"
#include "knn/neighbors.h"
#include "test_util.h"
#include "util/random.h"

namespace knnshap {
namespace {

using testing_util::ExpectVectorNear;
using testing_util::RandomClassDataset;
using testing_util::RankOrder;

// Brute-force oracle over the corrected utility for one query, players
// identified by their distance rank (0 = nearest). `matches[r]` is the
// 0/1 match indicator of the rank-r point.
std::vector<double> OracleByRank(const std::vector<int>& sorted_labels,
                                 int test_label, int k) {
  const int n = static_cast<int>(sorted_labels.size());
  CallableUtility utility(n, [&](std::span<const int> subset) {
    if (subset.empty()) return 0.0;
    std::vector<int> ranks(subset.begin(), subset.end());
    std::sort(ranks.begin(), ranks.end());  // rank order == distance order
    const size_t voters = std::min<size_t>(static_cast<size_t>(k), ranks.size());
    double matched = 0.0;
    for (size_t j = 0; j < voters; ++j) {
      if (sorted_labels[static_cast<size_t>(ranks[j])] == test_label) matched += 1.0;
    }
    return matched / static_cast<double>(voters);
  });
  return ShapleyByEnumeration(utility);
}

TEST(CorrectedShapleyTest, MatchesEnumerationAcrossSizesAndK) {
  Rng rng(20260731);
  for (int n : {1, 2, 3, 5, 8, 11}) {
    for (int k : {1, 2, 3, 5, 7, 16}) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<int> sorted_labels(static_cast<size_t>(n));
        for (auto& y : sorted_labels) y = static_cast<int>(rng.NextIndex(3));
        const int test_label = static_cast<int>(rng.NextIndex(3));
        auto oracle = OracleByRank(sorted_labels, test_label, k);
        auto fast = CorrectedKnnShapleyRecursion(sorted_labels, test_label, k);
        ExpectVectorNear(oracle, fast, 1e-10);
      }
    }
  }
}

TEST(CorrectedShapleyTest, EfficiencySumsToGrandUtility) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 40, k = 5;
    std::vector<int> sorted_labels(static_cast<size_t>(n));
    for (auto& y : sorted_labels) y = static_cast<int>(rng.NextIndex(2));
    auto sv = CorrectedKnnShapleyRecursion(sorted_labels, /*test_label=*/1, k);
    double grand = 0.0;
    for (int j = 0; j < k; ++j) grand += sorted_labels[static_cast<size_t>(j)] == 1;
    grand /= static_cast<double>(k);
    EXPECT_NEAR(std::accumulate(sv.begin(), sv.end(), 0.0), grand, 1e-10);
  }
}

TEST(CorrectedShapleyTest, AgreesWithOriginalWhenCoalitionsSaturate) {
  // For K = 1 the two utilities coincide on non-empty coalitions, and
  // nu(emptyset) = 0 in both conventions, so the values must match.
  Rng rng(13);
  std::vector<int> sorted_labels(25);
  for (auto& y : sorted_labels) y = static_cast<int>(rng.NextIndex(2));
  auto corrected = CorrectedKnnShapleyRecursion(sorted_labels, 1, /*k=*/1);
  auto original = KnnShapleyRecursion(sorted_labels, 1, /*k=*/1);
  ExpectVectorNear(corrected, original, 1e-12);
}

TEST(CorrectedShapleyTest, SingleQueryScattersByTrainingRow) {
  Dataset train = RandomClassDataset(12, 2, 3, 99);
  Dataset query = testing_util::SingleQuery(3, 100, /*label=*/1);
  auto by_row = CorrectedKnnShapleyFromOrder(RankOrder(train, query.features.Row(0)),
                                             train.labels, 1, 3);

  std::vector<int> order = ArgsortByDistance(train.features, query.features.Row(0),
                                             Metric::kL2, nullptr);
  std::vector<int> sorted_labels(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_labels[i] = train.labels[static_cast<size_t>(order[i])];
  }
  auto oracle = OracleByRank(sorted_labels, 1, 3);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_NEAR(by_row[static_cast<size_t>(order[i])], oracle[i], 1e-10);
  }
}

TEST(CorrectedShapleyTest, EngineMethodMatchesDirectAverage) {
  Dataset train = RandomClassDataset(30, 3, 4, 1);
  Dataset test = RandomClassDataset(6, 3, 4, 2);

  ValuationEngine engine;
  ValuationRequest request;
  request.method = "exact-corrected";
  request.params.k = 4;
  request.train = std::make_shared<const Dataset>(train);
  request.test = std::make_shared<const Dataset>(test);
  ValuationReport report = engine.Value(request);
  ASSERT_TRUE(report.ok()) << report.status.ToString();

  std::vector<double> expected(train.Size(), 0.0);
  for (size_t q = 0; q < test.Size(); ++q) {
    auto one = CorrectedKnnShapleyFromOrder(RankOrder(train, test.features.Row(q)),
                                            train.labels, test.labels[q], 4);
    for (size_t i = 0; i < expected.size(); ++i) expected[i] += one[i];
  }
  for (auto& v : expected) v /= static_cast<double>(test.Size());
  ExpectVectorNear(report.values, expected, 1e-12);
}

}  // namespace
}  // namespace knnshap
