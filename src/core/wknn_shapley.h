// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Quadratic-time Shapley values for weighted KNN classification with
// discretized weights — the WKNN-Shapley of Wang, Mittal & Jia
// (arXiv:2401.11103), adapted to this library's weighted utility (Eq 26).
//
// The source paper's weighted extension (Theorem 7, core/weighted_knn_
// shapley.h) costs O(N^K) per query because the weighted utility is no
// longer a function of label counts alone. Following arXiv:2401.11103, the
// cure is to value the *discretized-weight* classifier instead: each
// neighbor's raw kernel weight is snapped to one of 2^b - 1 positive
// integer levels, so the utility of any coalition is determined by two
// bounded integers — the level sum A of the correctly-labeled top-K
// members and the level sum B of all top-K members (the normalized Eq-26
// utility is A/B; normalization makes the common scale cancel). Computing
// the SV then reduces to *counting* coalitions by (A, B) composition
// instead of enumerating them, and the count tables admit an O(N^2)-time
// recursion over the ranked neighbors.
//
// Per test point, with points indexed by ascending distance rank:
//   * coalitions of size t <= K-1 sit entirely inside the top-K of both S
//     and S u {i}; a single knapsack DP over all points counts them by
//     (t, A, B), and removing point i from the DP yields the exact
//     marginal-gain sum for every i in O(K W) where W is the number of
//     (A, B) states;
//   * coalitions of size t >= K are grouped by their "displaced" element e
//     — the K-th nearest member of S that drops out of the top-K when i
//     joins. Fixing e at rank q, the other K-1 top members P range over
//     ranks < q, every choice of farther-ranked extras shares the same
//     marginal, and the group's total Shapley weight has the closed form
//       GW(q) = sum_{t>=K} binom(N-q, t-K) / (N binom(N-1, t)).
//     A prefix DP over ranks counts P by (A, B); iterating q outward per i
//     reuses it incrementally, for O(N) DP updates per point.
// Total: O(N^2 K W) per query versus O(N^K) — exact for the discretized
// game, and within a computable bound of the continuous Theorem-7 values.
//
// The deterministic approximation (`approx_error` > 0) truncates the
// displaced-element recursion at the smallest rank q* whose tail mass
//   Tail(q*) = sum_{q > q*} binom(q-2, K-1) GW(q)
// is at most the budget: the discarded groups' Shapley weights sum to
// Tail(q*) and each group's marginal lies in [-1, 1], so the per-point
// error bounds are subadditive over the dropped groups and the result is
// within `approx_error` of the exact discretized SV in l-infinity — a
// deterministic guarantee, unlike the Monte-Carlo estimators.

#ifndef KNNSHAP_CORE_WKNN_SHAPLEY_H_
#define KNNSHAP_CORE_WKNN_SHAPLEY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "knn/metric.h"
#include "knn/weights.h"
#include "util/status.h"

namespace knnshap {

/// Options for the quadratic-time discretized WKNN-Shapley.
struct WknnShapleyOptions {
  int k = 3;                    ///< KNN hyperparameter.
  WeightConfig weights;         ///< Raw neighbor weight kernel (Eq 26).
  Metric metric = Metric::kL2;
  /// Discretization width b: raw kernel weights are snapped to the integer
  /// grid {1, ..., 2^b - 1} after scaling by the per-query maximum. Larger
  /// b tracks the continuous weights more closely but grows the (A, B)
  /// count tables as 4^b. The paper finds b = 3 ample for valuation ranks.
  int weight_bits = 3;
  /// l-infinity truncation budget for the deterministic approximation;
  /// 0 computes the exact discretized SV.
  double approx_error = 0.0;
};

/// The closed-form coalition weights of the counting recursion for an
/// (n, k) game: start weights 1/(n binom(n-1, t)) for the small-coalition
/// case, group weights GW(q) for the displaced-element groups, and the
/// truncation tail masses. Depends only on (n, k) — the engine adapter
/// builds one at Fit() and shares it across every query on the corpus.
class WknnCoalitionWeights {
 public:
  WknnCoalitionWeights(int n, int k);

  int N() const { return n_; }
  /// Effective K: min(k, n) — a K beyond the corpus size plays as K = n.
  int K() const { return k_; }

  /// Shapley weight of one size-t coalition, t <= K-1.
  double StartWeight(int t) const { return start_[static_cast<size_t>(t)]; }
  /// Total Shapley weight of the displaced-element group at rank q
  /// (2 <= q <= n): all extensions of a fixed top-K by farther ranks.
  double GroupWeight(int q) const { return group_[static_cast<size_t>(q)]; }
  /// Tail mass dropped when the displaced recursion stops after rank q —
  /// the l-infinity error bound of the truncated SV.
  double TailMass(int q) const { return tail_[static_cast<size_t>(q)]; }
  /// Smallest q* with TailMass(q*) <= approx_error (n when exact).
  int TruncationRank(double approx_error) const;

 private:
  int n_;
  int k_;
  std::vector<double> start_;  ///< [t], t = 0..k_-1.
  std::vector<double> group_;  ///< [q], q = 0..n_ (0, 1 unused).
  std::vector<double> tail_;   ///< [q], tail_[n_] = 0.
};

/// Per-query ranked-neighbor structure: the distance ordering, each
/// point's correctness bit, and its raw and discretized kernel weights.
/// Shared by the SV recursion, the discretized utility evaluator and the
/// discretization bound, so all three agree on ranking and grid.
struct WknnQueryContext {
  std::vector<int> order;       ///< rank (0-based) -> training row.
  std::vector<int> rank_of;     ///< training row -> rank (0-based).
  std::vector<uint8_t> correct; ///< by rank: label matches the test label.
  std::vector<int> level;       ///< by rank: discrete weight in 1..2^b - 1.
  std::vector<double> raw;      ///< by rank: continuous kernel weight.
};

/// Ranks, correctness bits and (raw, discretized) weights for one query,
/// from its full ranking: `order` must be every training row ascending by
/// (dists[row], row) — a Ranking's full order (knn/ranking.h), local or
/// merged from shards — and `dists` the row-indexed raw distances that
/// produced it (the kernel weights need the exact doubles).
WknnQueryContext MakeWknnQueryContextFromRanking(std::vector<int> order,
                                                 std::span<const double> dists,
                                                 std::span<const int> labels,
                                                 int test_label,
                                                 const WknnShapleyOptions& options);

/// The discretized weighted utility nu-hat(S): level-sum ratio A/B over the
/// top-min(K,|S|) of `subset` (training-row ids). The ground-truth
/// evaluator the enumeration oracle uses to pin the recursion.
double WknnDiscretizedUtility(const WknnQueryContext& context,
                              std::span<const int> subset, int k);

/// l-infinity bound on |SV(continuous Eq 26) - SV(discretized)| for this
/// query: 2 max over feasible top-K sets T of |nu(T) - nu-hat(T)| (the SV
/// is an average of marginals, each moved by at most twice the utility
/// perturbation). Enumerates all binom(N, <=K) candidate sets — a test and
/// diagnostic helper for oracle-sized fixtures, not a serving path.
double WknnDiscretizationBound(const WknnQueryContext& context, int k);

/// Validates that the (A, B) count tables for an (n, k, weight_bits) game
/// fit the per-query memory budget — their footprint grows as K^3 4^b, so
/// a large K at wide discretization is a refusable request, not a
/// provisionable one. OK, or invalid_argument naming 'k'. The engine runs
/// this as the weighted-fast schema precondition, so no serve/CLI request
/// can reach the recursion's fatal internal check.
Status WknnTableBudget(int n, int k, int weight_bits);

/// Exact (or approx_error-truncated) SVs of the discretized weighted game
/// for one test point, from its query context, in O(N^2 K 4^b) time —
/// inside the kRecursion span, polling for cancellation once per rank.
/// `shared` (optional) is a precomputed WknnCoalitionWeights for
/// (N, options.k).
std::vector<double> WknnShapleyFromContext(const WknnQueryContext& context,
                                           const WknnShapleyOptions& options,
                                           const WknnCoalitionWeights* shared = nullptr);

/// SVs averaged over a test set (additivity, Eq 8).
std::vector<double> WknnShapley(const Dataset& train, const Dataset& test,
                                const WknnShapleyOptions& options,
                                bool parallel = true);

}  // namespace knnshap

#endif  // KNNSHAP_CORE_WKNN_SHAPLEY_H_
