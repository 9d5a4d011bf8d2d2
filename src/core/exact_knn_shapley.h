// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// The paper's headline result (Theorem 1 / Algorithm 1): the exact Shapley
// value of every training point under the unweighted KNN classification
// utility (Eq 5) in O(N log N) per test point — an exponential improvement
// over the 2^N-evaluation definition.
//
// For a single test point, with training points sorted ascending by
// distance (alpha_i = index of the i-th nearest):
//   s_{alpha_N} = 1[y_{alpha_N} = y_test] * min(K, N) / (N K)
//   s_{alpha_i} = s_{alpha_{i+1}}
//               + (1[y_{alpha_i}=y_test] - 1[y_{alpha_{i+1}}=y_test]) / K
//                 * min(K, i) / i
// Multi-test values are the average of per-test values (additivity, Eq 8).

#ifndef KNNSHAP_CORE_EXACT_KNN_SHAPLEY_H_
#define KNNSHAP_CORE_EXACT_KNN_SHAPLEY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "knn/metric.h"

namespace knnshap {

/// Recursion evaluated on an externally supplied distance ordering:
/// `sorted_labels[i]` is the label of the (i+1)-th nearest training point.
/// Returns SVs in *rank* order (index i = i-th nearest). This is the pure
/// O(N) core of Theorem 1, exposed for reuse by the LSH/truncated variants
/// and for property tests.
std::vector<double> KnnShapleyRecursion(const std::vector<int>& sorted_labels,
                                        int test_label, int k);

/// Non-recursive closed form (Eq 44-46), in rank order. Must agree with
/// KnnShapleyRecursion to floating-point accuracy; exposed for tests and
/// for the error analysis of Theorem 2.
std::vector<double> KnnShapleyClosedForm(const std::vector<int>& sorted_labels,
                                         int test_label, int k);

/// Sup-norm error of the truncated SVs below at nominal rank r:
/// max(1/r - 1/N, 1/(r+1)), exactly 0 when r >= N. Returned to clients as
/// `approx_bound`.
double TruncatedExactKnnShapleyBound(size_t r, size_t n);

/// Exact SVs of all training rows for one test point (Theorem 1), from
/// the query's ranking: `order` must be all of train's rows ascending by
/// (distance, index) — a Ranking's full order (knn/ranking.h), local or
/// merged from shards. `labels` is indexed by row. Returns dense
/// row-indexed SVs; O(N) after the ranking, inside the kRecursion span.
std::vector<double> ExactKnnShapleyFromOrder(std::span<const int> order,
                                             std::span<const int> labels,
                                             int test_label, int k);

/// Theorem 1's step weights: steps[i] = (1/K)·min(K, i)/i for the
/// 1-based rank i in [1, n); steps[0] is unused. Eq 7 adds
/// (match_i − match_{i+1})/K·min(K, i)/i, and that difference is −1, 0
/// or 1: IEEE division and multiplication are sign-symmetric, so
/// (match_i − match_{i+1})·steps[i] has the bits of Eq 7's two divisions.
/// Depends on (n, K) alone, so a fitted valuator builds it once.
std::vector<double> ExactKnnShapleySteps(size_t n, int k);

/// How many ranks ahead the rank-space folds prefetch their random
/// accesses.
inline constexpr size_t kFoldPrefetchRanks = 32;

/// A corpus's row labels as the rank-space folds read them: one gather at
/// a random row per rank. With at most 255 distinct labels they are held
/// as one byte per row (codes number the distinct labels in ascending
/// order), so a quarter of the bytes competes for cache; with more, the
/// folds read the int labels. Built once per fitted corpus.
struct FoldLabels {
  /// `labels` must outlive this.
  explicit FoldLabels(std::span<const int> labels);

  /// `label`'s code; distinct.size(), which no row carries, when absent.
  uint8_t Code(int label) const;

  std::span<const int> labels;
  std::vector<uint8_t> codes;  ///< Per row; empty past 255 distinct labels.
  std::vector<int> distinct;   ///< The label of each code, ascending.
};

/// Adds one test point's exact SVs (Theorem 1) into the row-indexed
/// `accumulator` in rank space: one backward pass over the full `order`
/// gathers each rank's label, steps Eq 7 by `steps`
/// (ExactKnnShapleySteps(N, k)) and adds the value at its row. No
/// per-query N-vector. Each row is added to exactly once, so the result
/// has the bits of adding ExactKnnShapleyFromOrder's vector element-wise.
/// Records the kRecursion span.
void FoldExactKnnShapley(std::span<const int> order, const FoldLabels& labels,
                         int test_label, int k, std::span<const double> steps,
                         std::span<double> accumulator);

/// Truncated Theorem-1 SVs for one test point — the `approx_error` path —
/// from the query's top-r order prefix (ascending (distance, index)) of an
/// n-row corpus, so only the first r ranks need ranking (streaming top-R
/// selection, no full argsort). They receive Eq (45)/(46) values with the
/// suffix sum truncated at rank r, and every tail point receives 0. Since
/// the suffix tail is at most 1/r - 1/N and |s_i| <= 1/(r+1) past rank r,
/// the sup-norm error is bounded by TruncatedExactKnnShapleyBound(r, N).
/// The prefix length must be TruncatedExactEffectiveRank(r, n, k) and
/// < n; at r >= n the truncation is the exact computation, so use
/// ExactKnnShapleyFromOrder.
std::vector<double> TruncatedExactKnnShapleyFromOrder(
    std::span<const int> order_prefix, std::span<const int> labels,
    int test_label, int k, size_t n);

/// Adds TruncatedExactKnnShapleyFromOrder's values into the row-indexed
/// `accumulator` in one backward pass over the prefix, touching only the
/// prefix rows. Skipping the tail's zeros changes no bit: an accumulator
/// that starts at +0.0 never becomes −0.0 (a sum is −0.0 only when both
/// terms are), and x + (+0.0) == x for every other x.
void FoldTruncatedExactKnnShapley(std::span<const int> order_prefix,
                                  std::span<const int> labels, int test_label,
                                  int k, std::span<double> accumulator);

/// The prefix length the truncated path actually retrieves for a nominal
/// r: max(r, min(k, n)) — the i < K branch of Eq (46) reads the suffix at
/// rank min(K, N). Shared with the shard router so a fanned-out retrieval
/// requests the identical prefix.
size_t TruncatedExactEffectiveRank(size_t r, size_t n, int k);

/// Exact SVs averaged over a test set (Algorithm 1). Parallelizes over
/// test points when `parallel` is true. O(N_test * N (d + log N)).
std::vector<double> ExactKnnShapley(const Dataset& train, const Dataset& test, int k,
                                    bool parallel = true, Metric metric = Metric::kL2);

}  // namespace knnshap

#endif  // KNNSHAP_CORE_EXACT_KNN_SHAPLEY_H_
