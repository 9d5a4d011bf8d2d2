// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Exact Shapley values for *weighted* KNN classification and regression
// (Theorem 7 / Appendix E.2), utility Eq (26)/(27). Weighted utilities are
// no longer determined by label counts alone, so the O(N log N) recursion
// does not apply; but since nu(S) depends only on the top-K set of S and
// there are at most O(N^K) distinct top-K sets, the SV is computable in
// O(N^K) — still exponentially better than 2^N.
//
// The per-pair difference (Lemma 1) is evaluated group-by-group:
//   * subsets S' of size k' <= K-2 are singleton groups with weight
//     1/binom(N-2, k');
//   * each subset S' of size K-1 represents every S that extends it with
//     elements ranked beyond r = max-rank(S' u {i, i+1}); the group weight
//     is M(r) = sum_{k>=K-1} binom(N-r, k-K+1)/binom(N-2, k)  (Eq 81-83).
//
// The same machinery computes the composite-game values of Theorem 11 with
// the modified weights 1/binom(N-1, k'+1) and
// Mc(r) = sum_{k>=K-1} binom(N-r, k-K+1)/binom(N-1, k+1).

#ifndef KNNSHAP_CORE_WEIGHTED_KNN_SHAPLEY_H_
#define KNNSHAP_CORE_WEIGHTED_KNN_SHAPLEY_H_

#include <span>
#include <vector>

#include "core/utility.h"
#include "dataset/dataset.h"
#include "knn/metric.h"
#include "knn/weights.h"

namespace knnshap {

/// Options for the weighted exact algorithm.
struct WeightedShapleyOptions {
  int k = 3;
  WeightConfig weights;                              ///< Neighbor weight kernel.
  KnnTask task = KnnTask::kWeightedClassification;   ///< Classification or regression.
  Metric metric = Metric::kL2;
  /// When true, computes the seller values of the *composite* game of
  /// Theorem 11 instead of the data-only game of Theorem 7 (the analyst's
  /// value is nu(I) minus the sellers' total; see core/composite_game.h).
  bool composite_game = false;
};

/// Exact SVs for one test point, from the query's full ranking: `order`
/// holds every training row ascending by (distance, index). The utilities
/// are evaluated against `query` itself. O(N^K) utility evaluations;
/// practical for small K and moderate N (the regime of Figure 12).
std::vector<double> ExactWeightedKnnShapleyFromOrder(
    const Dataset& train, std::span<const int> order, std::span<const float> query,
    int test_label, double test_target, const WeightedShapleyOptions& options);

/// Exact SVs averaged over a test set (additivity).
std::vector<double> ExactWeightedKnnShapley(const Dataset& train, const Dataset& test,
                                            const WeightedShapleyOptions& options,
                                            bool parallel = true);

/// Number of subset-utility evaluations the exact weighted algorithm
/// performs for one test point — the paper's O(N^K) count (Eq 78), exposed
/// so benches can report work alongside wall time.
double WeightedShapleyEvalCount(int n, int k);

}  // namespace knnshap

#endif  // KNNSHAP_CORE_WEIGHTED_KNN_SHAPLEY_H_
