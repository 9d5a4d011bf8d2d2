// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/composite_game.h"

#include <algorithm>

#include "core/multi_seller_shapley.h"
#include "core/weighted_knn_shapley.h"
#include "knn/ranking.h"
#include "util/common.h"

namespace knnshap {

namespace {

// Finishes a result from the sellers' mean values with the analyst's share
// s_C = nu(I) - sum_i s_i (Eq 87/92/95/97).
CompositeShapleyResult FinishResult(std::vector<double> seller_values,
                                    double total_utility) {
  CompositeShapleyResult result;
  result.seller_values = std::move(seller_values);
  result.total_utility = total_utility;
  double sellers_total = 0.0;
  for (double s : result.seller_values) sellers_total += s;
  result.analyst_value = total_utility - sellers_total;
  return result;
}

}  // namespace

std::vector<double> CompositeKnnShapleyRecursion(const std::vector<int>& sorted_labels,
                                                 int test_label, int k) {
  const int n = static_cast<int>(sorted_labels.size());
  KNNSHAP_CHECK(n >= 1 && k >= 1, "bad arguments");
  const double kd = static_cast<double>(k);
  std::vector<double> sv(static_cast<size_t>(n), 0.0);
  auto match = [&](int rank) {
    return sorted_labels[static_cast<size_t>(rank - 1)] == test_label ? 1.0 : 0.0;
  };
  // Eq (85), generalized through the ratio (88) to K > N.
  double min_nk = static_cast<double>(std::min(n, k));
  sv[static_cast<size_t>(n - 1)] = match(n) * (min_nk + 1.0) /
                                   (2.0 * static_cast<double>(n + 1) *
                                    static_cast<double>(n) * (kd / min_nk));
  // Note: for N >= K the expression reduces to (K+1)/(2(N+1)N) * 1[match],
  // exactly Eq (85).
  for (int i = n - 1; i >= 1; --i) {
    double min_ik = static_cast<double>(std::min(i, k));
    double diff = (match(i) - match(i + 1)) / kd * min_ik * (min_ik + 1.0) /
                  (2.0 * static_cast<double>(i) * static_cast<double>(i + 1));
    sv[static_cast<size_t>(i - 1)] = sv[static_cast<size_t>(i)] + diff;
  }
  return sv;
}

CompositeShapleyResult CompositeKnnShapley(const Dataset& train, const Dataset& test,
                                           int k, bool parallel, Metric metric) {
  KNNSHAP_CHECK(train.HasLabels() && test.HasLabels(), "labels required");
  const size_t n = train.Size();
  const LocalRanking ranking(&train.features, metric);
  std::vector<double> sellers = MeanOverQueries(test.Size(), n, parallel, [&](size_t j) {
    std::vector<double> dists;
    std::vector<int> order;
    ranking.Rank(test.features.Row(j), n, &dists, &order);
    std::vector<int> sorted_labels(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted_labels[i] = train.labels[static_cast<size_t>(order[i])];
    }
    std::vector<double> by_rank =
        CompositeKnnShapleyRecursion(sorted_labels, test.labels[j], k);
    std::vector<double> sv(n, 0.0);
    for (size_t i = 0; i < order.size(); ++i) {
      sv[static_cast<size_t>(order[i])] = by_rank[i];
    }
    return sv;
  });
  KnnSubsetUtility utility(&train, &test, k, KnnTask::kClassification);
  return FinishResult(std::move(sellers), utility.GrandValue());
}

std::vector<double> CompositeKnnRegressionShapleyRecursion(
    const std::vector<double>& sorted_targets, double test_target, int k) {
  const int n = static_cast<int>(sorted_targets.size());
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  KNNSHAP_CHECK(n >= k + 1, "Theorem 10 requires N >= K+1");
  const double kd = static_cast<double>(k);
  const double nd = static_cast<double>(n);
  auto y = [&](int rank) { return sorted_targets[static_cast<size_t>(rank - 1)]; };
  std::vector<double> sv(static_cast<size_t>(n), 0.0);

  // Starting point (Eq 90).
  {
    double sum_rest = 0.0;
    for (int l = 1; l <= n - 1; ++l) sum_rest += y(l);
    double yn = y(n);
    double bracket = (kd + 2.0) * (kd - 1.0) / (2.0 * nd) *
                         (yn / kd - 2.0 * test_target) +
                     2.0 * (kd - 1.0) * (kd + 1.0) / (3.0 * nd * (nd - 1.0)) * sum_rest;
    double err = yn / kd - test_target;
    sv[static_cast<size_t>(n - 1)] =
        -yn * bracket / (kd * (nd + 1.0)) - err * err / (nd * (nd + 1.0));
  }

  // Suffix sums Q_i = sum_{l=i+2}^{N} y_l * 2 min(K+1,l) min(K,l-1)
  // min(K-1,l-2) / (3 l (l-1)(l-2)).
  std::vector<double> q(static_cast<size_t>(n) + 3, 0.0);
  for (int l = n; l >= 3; --l) {
    double coef = 2.0 * static_cast<double>(std::min(k + 1, l)) *
                  static_cast<double>(std::min(k, l - 1)) *
                  static_cast<double>(std::min(k - 1, l - 2)) /
                  (3.0 * static_cast<double>(l) * static_cast<double>(l - 1) *
                   static_cast<double>(l - 2));
    q[static_cast<size_t>(l)] = q[static_cast<size_t>(l + 1)] + y(l) * coef;
  }
  double prefix = 0.0;
  std::vector<double> p(static_cast<size_t>(n) + 1, 0.0);
  for (int i = 1; i <= n; ++i) {
    p[static_cast<size_t>(i)] = prefix;
    prefix += y(i);
  }

  // Backward recursion (Eq 91).
  for (int i = n - 1; i >= 1; --i) {
    double min_k1 = static_cast<double>(std::min(k + 1, i + 1));
    double min_k = static_cast<double>(std::min(k, i));
    double term_pair = ((y(i + 1) + y(i)) / kd - 2.0 * test_target) * min_k1 * min_k /
                       (2.0 * static_cast<double>(i) * static_cast<double>(i + 1));
    double term_prefix = 0.0;
    if (i >= 2) {
      term_prefix = (1.0 / kd) * p[static_cast<size_t>(i)] * 2.0 * min_k1 * min_k *
                    static_cast<double>(std::min(k - 1, i - 1)) /
                    (3.0 * static_cast<double>(i - 1) * static_cast<double>(i) *
                     static_cast<double>(i + 1));
    }
    double term_suffix = (1.0 / kd) * q[static_cast<size_t>(i + 2)];
    double diff =
        (y(i + 1) - y(i)) / kd * (term_pair + term_prefix + term_suffix);
    sv[static_cast<size_t>(i - 1)] = sv[static_cast<size_t>(i)] + diff;
  }
  return sv;
}

CompositeShapleyResult CompositeKnnRegressionShapley(const Dataset& train,
                                                     const Dataset& test, int k,
                                                     bool parallel, Metric metric) {
  KNNSHAP_CHECK(train.HasTargets() && test.HasTargets(), "targets required");
  const size_t n = train.Size();
  const LocalRanking ranking(&train.features, metric);
  std::vector<double> sellers = MeanOverQueries(test.Size(), n, parallel, [&](size_t j) {
    std::vector<double> dists;
    std::vector<int> order;
    ranking.Rank(test.features.Row(j), n, &dists, &order);
    std::vector<double> sorted_targets(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted_targets[i] = train.targets[static_cast<size_t>(order[i])];
    }
    std::vector<double> by_rank =
        CompositeKnnRegressionShapleyRecursion(sorted_targets, test.targets[j], k);
    std::vector<double> sv(n, 0.0);
    for (size_t i = 0; i < order.size(); ++i) {
      sv[static_cast<size_t>(order[i])] = by_rank[i];
    }
    return sv;
  });
  KnnSubsetUtility utility(&train, &test, k, KnnTask::kRegression);
  return FinishResult(std::move(sellers), utility.GrandValue());
}

CompositeShapleyResult CompositeWeightedKnnShapley(const Dataset& train,
                                                   const Dataset& test, int k,
                                                   const WeightConfig& weights,
                                                   KnnTask task, bool parallel,
                                                   Metric metric) {
  WeightedShapleyOptions options;
  options.k = k;
  options.weights = weights;
  options.task = task;
  options.metric = metric;
  options.composite_game = true;
  KnnSubsetUtility utility(&train, &test, k, task, weights);
  return FinishResult(ExactWeightedKnnShapley(train, test, options, parallel),
                      utility.GrandValue());
}

CompositeShapleyResult CompositeMultiSellerShapley(const Dataset& train,
                                                   const OwnerAssignment& owners,
                                                   const Dataset& test, int k,
                                                   KnnTask task,
                                                   const WeightConfig& weights,
                                                   bool parallel, Metric metric) {
  MultiSellerShapleyOptions options;
  options.k = k;
  options.task = task;
  options.weights = weights;
  options.metric = metric;
  options.composite_game = true;
  KnnSubsetUtility utility(&train, &test, k, task, weights);
  return FinishResult(MultiSellerShapley(train, owners, test, options, parallel),
                      utility.GrandValue());
}

}  // namespace knnshap
