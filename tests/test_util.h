// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Shared helpers for the test suite: tiny random datasets sized for the
// enumeration oracle and vector comparison utilities.

#ifndef KNNSHAP_TESTS_TEST_UTIL_H_
#define KNNSHAP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "knn/ranking.h"
#include "util/random.h"

namespace knnshap {
namespace testing_util {

/// Random labeled dataset for oracle-sized games.
inline Dataset RandomClassDataset(size_t n, int num_classes, size_t dim,
                                  uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.name = "test";
  data.features = Matrix(n, dim);
  data.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    auto row = data.features.MutableRow(i);
    for (size_t d = 0; d < dim; ++d) row[d] = static_cast<float>(rng.NextGaussian());
    data.labels[i] = static_cast<int>(rng.NextIndex(static_cast<uint64_t>(num_classes)));
  }
  return data;
}

/// Random regression dataset.
inline Dataset RandomRegDataset(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.name = "test-reg";
  data.features = Matrix(n, dim);
  data.targets.resize(n);
  for (size_t i = 0; i < n; ++i) {
    auto row = data.features.MutableRow(i);
    for (size_t d = 0; d < dim; ++d) row[d] = static_cast<float>(rng.NextGaussian());
    data.targets[i] = rng.NextGaussian();
  }
  return data;
}

/// One-row test set taken from a fresh random draw.
inline Dataset SingleQuery(size_t dim, uint64_t seed, int label = 0,
                           double target = 0.0) {
  Rng rng(seed);
  Dataset data;
  data.name = "query";
  data.features = Matrix(1, dim);
  auto row = data.features.MutableRow(0);
  for (size_t d = 0; d < dim; ++d) row[d] = static_cast<float>(rng.NextGaussian());
  data.labels = {label};
  data.targets = {target};
  return data;
}

/// The first min(r, N) rows of `train`'s ascending (distance, index)
/// ranking of `query` — what a valuator's LocalRanking hands its
/// recursion. `dists` (optional) receives every row's distance.
inline std::vector<int> RankOrder(const Dataset& train, std::span<const float> query,
                                  size_t r = std::numeric_limits<size_t>::max(),
                                  Metric metric = Metric::kL2,
                                  std::vector<double>* dists = nullptr) {
  std::vector<double> scratch;
  std::vector<int> order;
  LocalRanking(&train.features, metric)
      .Rank(query, r, dists != nullptr ? dists : &scratch, &order);
  return order;
}

/// Asserts elementwise |a - b| <= tol.
inline void ExpectVectorNear(const std::vector<double>& a, const std::vector<double>& b,
                             double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

}  // namespace testing_util
}  // namespace knnshap

#endif  // KNNSHAP_TESTS_TEST_UTIL_H_
