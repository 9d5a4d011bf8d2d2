// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/knn_regression_shapley.h"

#include <algorithm>

#include "core/utility.h"
#include "knn/ranking.h"
#include "obs/trace.h"
#include "util/common.h"

namespace knnshap {

std::vector<double> KnnRegressionShapleyRecursion(
    const std::vector<double>& sorted_targets, double test_target, int k) {
  const int n = static_cast<int>(sorted_targets.size());
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  KNNSHAP_CHECK(n >= k + 1, "Theorem 6 requires N >= K+1");
  const double kd = static_cast<double>(k);
  auto y = [&](int rank) { return sorted_targets[static_cast<size_t>(rank - 1)]; };

  std::vector<double> sv(static_cast<size_t>(n), 0.0);

  // Starting point s_{alpha_N} (Eq 62). The paper's formula anchors the
  // game at nu(empty) = 0; the literal Eq (25) utility has nu(empty) =
  // -y_test^2, which adds the constant -nu(empty)/N = y_test^2/N to every
  // player's Shapley value (the S = empty term of Eq 2). We include it so
  // the values are the exact SVs of the literal game, matching the
  // enumeration oracle.
  {
    double sum_rest = 0.0;
    for (int l = 1; l <= n - 1; ++l) sum_rest += y(l);
    double yn = y(n);
    double bracket = yn / kd - 2.0 * test_target + sum_rest / static_cast<double>(n - 1);
    double nu_single = yn / kd - test_target;  // KNN estimate error of {x_N} alone
    sv[static_cast<size_t>(n - 1)] =
        -(kd - 1.0) / (static_cast<double>(n) * kd) * yn * bracket -
        nu_single * nu_single / static_cast<double>(n) +
        test_target * test_target / static_cast<double>(n);
  }

  // Suffix sums Q_i = sum_{l=i+2}^{N} y_l min(K,l-1) min(K-1,l-2) /
  // ((l-1)(l-2)); Q depends on i only through its lower limit, so one
  // backward pass suffices.
  std::vector<double> q(static_cast<size_t>(n) + 3, 0.0);
  for (int l = n; l >= 3; --l) {
    double coef = static_cast<double>(std::min(k, l - 1)) *
                  static_cast<double>(std::min(k - 1, l - 2)) /
                  (static_cast<double>(l - 1) * static_cast<double>(l - 2));
    q[static_cast<size_t>(l)] = q[static_cast<size_t>(l + 1)] + y(l) * coef;
  }
  // Prefix sums P_i = sum_{l=1}^{i-1} y_l.
  double prefix = 0.0;
  std::vector<double> p(static_cast<size_t>(n) + 1, 0.0);
  for (int i = 1; i <= n; ++i) {
    p[static_cast<size_t>(i)] = prefix;
    prefix += y(i);
  }

  // Backward recursion (Eq 63 expanded per the Appendix E.1 proof).
  for (int i = n - 1; i >= 1; --i) {
    double min_ki = static_cast<double>(std::min(k, i));
    double term_pair =
        ((y(i) + y(i + 1)) / kd - 2.0 * test_target) * min_ki / static_cast<double>(i);
    double term_prefix = 0.0;
    if (i >= 2) {
      term_prefix = (1.0 / kd) * min_ki * static_cast<double>(std::min(k - 1, i - 1)) /
                    (static_cast<double>(i - 1) * static_cast<double>(i)) *
                    p[static_cast<size_t>(i)];
    }
    double term_suffix = (1.0 / kd) * q[static_cast<size_t>(i + 2)];
    double diff = (y(i + 1) - y(i)) / kd * (term_pair + term_prefix + term_suffix);
    sv[static_cast<size_t>(i - 1)] = sv[static_cast<size_t>(i)] + diff;
  }
  return sv;
}

std::vector<double> ExactKnnRegressionShapleyFromOrder(std::span<const int> order,
                                                       std::span<const double> targets,
                                                       double test_target, int k) {
  KNNSHAP_CHECK(order.size() == targets.size(), "targets and a full order required");
  ScopedPhase span(Phase::kRecursion);
  std::vector<double> sorted_targets(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_targets[i] = targets[static_cast<size_t>(order[i])];
  }
  std::vector<double> by_rank =
      KnnRegressionShapleyRecursion(sorted_targets, test_target, k);
  std::vector<double> sv(targets.size(), 0.0);
  for (size_t i = 0; i < order.size(); ++i) {
    sv[static_cast<size_t>(order[i])] = by_rank[i];
  }
  return sv;
}

std::vector<double> ExactKnnRegressionShapley(const Dataset& train, const Dataset& test,
                                              int k, bool parallel, Metric metric) {
  KNNSHAP_CHECK(train.HasTargets() && test.HasTargets(), "targets required");
  const size_t n = train.Size();
  const LocalRanking ranking(&train.features, metric);
  return MeanOverQueries(test.Size(), n, parallel, [&](size_t j) {
    std::vector<double> dists;
    std::vector<int> order;
    ranking.Rank(test.features.Row(j), n, &dists, &order);
    return ExactKnnRegressionShapleyFromOrder(order, train.targets, test.targets[j], k);
  });
}

}  // namespace knnshap
