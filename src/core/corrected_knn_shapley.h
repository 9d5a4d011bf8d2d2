// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Corrected exact KNN-Shapley (Wang & Jia, arXiv:2304.04258). The source
// paper's Theorem 1 derivation evaluates the KNN utility of a coalition S
// with |S| < K as (1/K) * sum of the matches among *all* of S — i.e. it
// keeps dividing by K even when fewer than K neighbors exist. The note
// points out that the natural soft-label KNN classifier normalizes by the
// number of neighbors actually voting, and derives the exact Shapley value
// under the corrected utility
//
//   nu(S) = (1 / min(K, |S|)) * sum_{j=1}^{min(K,|S|)} 1[y_{alpha_j(S)} = y],
//   nu(emptyset) = 0,
//
// still in O(N log N) per test point. Our recursion (verified against
// brute-force subset enumeration in tests/corrected_shapley_test.cpp)
// splits the Shapley sum at coalition size K:
//
//   * |S| < K — every member votes, so the marginal gain of i depends only
//     on |S| and the match count of S; averaging the hypergeometric match
//     count gives a rank-independent term g(a_i), affine in the match
//     indicator a_i = 1[y_i = y].
//   * |S| >= K — adding i evicts the K-th neighbor of S, and pairing
//     coalitions of adjacent-rank points telescopes into
//       phi_{alpha_r} - phi_{alpha_{r+1}} =
//           (a_r - a_{r+1}) * (g(1) - g(0) + W_r / (N K)),
//     where W_r = sum over coalition sizes of the probability that fewer
//     than K members outrank alpha_r. The expected position of the K-th of
//     r-1 marked items in a random arrangement of N-1 items collapses W_r
//     to the closed form  W_r = N - K for r <= K,  K (N - r) / r otherwise.
//
// Ties in distance are broken by training-row index, matching
// ArgsortByDistance everywhere else in the library.

#ifndef KNNSHAP_CORE_CORRECTED_KNN_SHAPLEY_H_
#define KNNSHAP_CORE_CORRECTED_KNN_SHAPLEY_H_

#include <span>
#include <vector>

#include "core/exact_knn_shapley.h"

namespace knnshap {

/// Corrected-utility Shapley values in *rank* order: `sorted_labels[i]` is
/// the label of the (i+1)-th nearest training point and the returned value
/// at index i belongs to that point. O(N + K) after sorting.
std::vector<double> CorrectedKnnShapleyRecursion(const std::vector<int>& sorted_labels,
                                                 int test_label, int k);

/// Sup-norm error of the truncated corrected SVs below at nominal rank r:
/// 1/r - 1/N, exactly 0 when r >= N or N-1 < k (no coalition of size >= k
/// exists — the rank-dependent term vanishes and truncation is exact).
double TruncatedCorrectedKnnShapleyBound(size_t r, size_t n, int k);

/// Corrected-utility Shapley values of all training rows for one test
/// point, indexed by training row, from the query's full ranking (all
/// rows ascending by (distance, index); `labels` indexed by row). O(N)
/// after the ranking.
std::vector<double> CorrectedKnnShapleyFromOrder(std::span<const int> order,
                                                 std::span<const int> labels,
                                                 int test_label, int k);

/// The corrected recursion's rank weights: steps[r] = W_r / (N K) for
/// the 1-based rank r in [1, n) (steps[0] is unused), the part of the
/// step that depends on (n, K) alone.
std::vector<double> CorrectedKnnShapleySteps(size_t n, int k);

/// Adds one test point's corrected SVs into the row-indexed `accumulator`
/// in rank space, from the full `order`: one backward pass steps the
/// recursion by (match_r − match_{r+1})·(g_gap + steps[r]), the
/// recursion's own expression, and adds each value at its row. Bitwise
/// equal to adding CorrectedKnnShapleyFromOrder's vector element-wise.
/// Records the kRecursion span.
void FoldCorrectedKnnShapley(std::span<const int> order,
                             const FoldLabels& labels, int test_label, int k,
                             std::span<const double> steps,
                             std::span<double> accumulator);

/// Truncated corrected SVs for one test point — the `approx_error` path —
/// from the query's top-r order prefix. Telescoping the recursion from the
/// farthest rank and using that g(a) is affine gives the closed form
///   phi_{alpha_r} = g(a_r) + sum_{i=r}^{N-1} (a_i - a_{i+1}) c_i,
///   c_i = W_i / (N K) = 1/max(i, K) - 1/N   (0 when N-1 < K),
/// whose rank-dependent sum telescopes with |partial sums| <= 1 and c_i
/// decreasing, so dropping ranks past r changes any value by at most
/// c_r = 1/r - 1/N. Only the first r ranks are ranked; every tail point
/// receives its rank-independent g(a) term, which needs just the point's
/// own label and the global match count. In the N-1 < K regime every c_i
/// vanishes, the result is exact and labels-only, and `order_prefix` is
/// ignored (pass empty). Otherwise the prefix length must be
/// TruncatedCorrectedEffectiveRank(r, n, k) and < n; at r >= n use
/// CorrectedKnnShapleyFromOrder.
std::vector<double> TruncatedCorrectedKnnShapleyFromOrder(
    std::span<const int> order_prefix, std::span<const int> labels,
    int test_label, int k);

/// The prefix length the truncated corrected path retrieves for a nominal
/// r: max(r, k). Shared with the shard router so a fanned-out retrieval
/// requests the identical prefix.
size_t TruncatedCorrectedEffectiveRank(size_t r, size_t n, int k);

}  // namespace knnshap

#endif  // KNNSHAP_CORE_CORRECTED_KNN_SHAPLEY_H_
