// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Exact Shapley values for unweighted KNN *regression* (Theorem 6 /
// Appendix E.1), utility nu(S) = -((1/K) sum_{k<=min(K,|S|)} y_{alpha_k(S)}
// - y_test)^2 (Eq 25). Like the classification case the SV difference of
// two adjacent-in-distance points has a closed form; with prefix/suffix
// sums over the A_i^{(l)} coefficients of Eq (64) the whole recursion runs
// in O(N) after the O(N log N) sort.

#ifndef KNNSHAP_CORE_KNN_REGRESSION_SHAPLEY_H_
#define KNNSHAP_CORE_KNN_REGRESSION_SHAPLEY_H_

#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "knn/metric.h"

namespace knnshap {

/// Theorem 6 recursion on an externally sorted target sequence:
/// `sorted_targets[i]` is the target of the (i+1)-th nearest training
/// point. Returns SVs in rank order. Requires N >= K+1 (the paper's
/// derivation assumes the training set is larger than the neighborhood).
std::vector<double> KnnRegressionShapleyRecursion(
    const std::vector<double>& sorted_targets, double test_target, int k);

/// Exact SVs of all training rows for one test point, from the query's
/// full ranking: `order` holds every row ascending by (distance, index)
/// and `targets` is indexed by row. O(N) after the ranking.
std::vector<double> ExactKnnRegressionShapleyFromOrder(std::span<const int> order,
                                                       std::span<const double> targets,
                                                       double test_target, int k);

/// Exact SVs averaged over a test set with targets (additivity over test
/// points, as in Eq 8).
std::vector<double> ExactKnnRegressionShapley(const Dataset& train, const Dataset& test,
                                              int k, bool parallel = true,
                                              Metric metric = Metric::kL2);

}  // namespace knnshap

#endif  // KNNSHAP_CORE_KNN_REGRESSION_SHAPLEY_H_
