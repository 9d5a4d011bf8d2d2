// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/corrected_knn_shapley.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/common.h"

namespace knnshap {

namespace {

// Rank-independent contribution of all coalitions with |S| < K: the point's
// own vote enters a mean over min(K, |S|+1) voters, and the other votes
// average hypergeometrically. g is affine in the match indicator a; G is
// the total match count over all N training points.
//
//   g(a) = (1/N) [ a + sum_{m=1}^{min(K,N)-1}
//                      ( (m (G-a)/(N-1) + a) / (m+1)  -  (G-a)/(N-1) ) ]
double SmallCoalitionTerm(double a, double total_matches, int n, int k) {
  const double nd = static_cast<double>(n);
  double sum = a;  // m = 0: nu({i}) - nu(emptyset) = a.
  if (n > 1) {
    const double others = total_matches - a;  // matches among the other N-1
    const double mean_match = others / (nd - 1.0);
    const int m_end = std::min(k, n) - 1;
    for (int m = 1; m <= m_end; ++m) {
      const double md = static_cast<double>(m);
      sum += (md * mean_match + a) / (md + 1.0) - mean_match;
    }
  }
  return sum / nd;
}

// W_r = sum_{m=K}^{N-1} Pr[< K of the r-1 closer points land in a
// uniform m-subset of the other N-1] — closed form via the expected
// position of the K-th closer point; 0 when N-1 < K.
double RankWeight(int r, int n, int k) {
  if (n - 1 < k) return 0.0;
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return r <= k ? nd - kd : kd * (nd - static_cast<double>(r)) / static_cast<double>(r);
}

}  // namespace

std::vector<double> CorrectedKnnShapleyRecursion(const std::vector<int>& sorted_labels,
                                                 int test_label, int k) {
  const int n = static_cast<int>(sorted_labels.size());
  KNNSHAP_CHECK(n >= 1, "empty training set");
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");

  auto match = [&](int rank) {  // rank is 1-based
    return sorted_labels[static_cast<size_t>(rank - 1)] == test_label ? 1.0 : 0.0;
  };
  double total_matches = 0.0;
  for (int r = 1; r <= n; ++r) total_matches += match(r);

  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  // Difference of the rank-independent term between a matching and a
  // non-matching point (g is affine in a, so only the gap is needed).
  const double g_gap = SmallCoalitionTerm(1.0, total_matches, n, k) -
                       SmallCoalitionTerm(0.0, total_matches, n, k);

  std::vector<double> sv(static_cast<size_t>(n), 0.0);
  // Farthest point: every coalition of size >= K has K closer members, so
  // only the small-coalition term survives.
  sv[static_cast<size_t>(n - 1)] = SmallCoalitionTerm(match(n), total_matches, n, k);

  for (int r = n - 1; r >= 1; --r) {
    sv[static_cast<size_t>(r - 1)] =
        sv[static_cast<size_t>(r)] +
        (match(r) - match(r + 1)) * (g_gap + RankWeight(r, n, k) / (nd * kd));
  }
  return sv;
}

std::vector<double> CorrectedKnnShapleySteps(size_t n, int k) {
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  const int ni = static_cast<int>(n);
  const double nk = static_cast<double>(ni) * static_cast<double>(k);
  std::vector<double> steps(n, 0.0);
  for (int r = 1; r < ni; ++r) {
    steps[static_cast<size_t>(r)] = RankWeight(r, ni, k) / nk;
  }
  return steps;
}

namespace {

template <typename Label>
void FoldCorrected(std::span<const int> order, std::span<const Label> labels,
                   Label test_label, int k, std::span<const double> steps,
                   std::span<double> accumulator) {
  const size_t n = order.size();
  const int ni = static_cast<int>(n);
  // The match count is an exact small integer, so counting by row gives
  // the recursion's rank-order sum.
  const double total_matches = static_cast<double>(
      std::count(labels.begin(), labels.end(), test_label));
  const double g_gap = SmallCoalitionTerm(1.0, total_matches, ni, k) -
                       SmallCoalitionTerm(0.0, total_matches, ni, k);
  auto match = [&](size_t rank) {  // rank is 0-based here
    return labels[static_cast<size_t>(order[rank])] == test_label ? 1.0 : 0.0;
  };
  double match_next = match(n - 1);
  double value = SmallCoalitionTerm(match_next, total_matches, ni, k);
  accumulator[static_cast<size_t>(order[n - 1])] += value;
  for (size_t r = n - 1; r >= 1; --r) {
    if (r > kFoldPrefetchRanks) {
      const size_t ahead = static_cast<size_t>(order[r - 1 - kFoldPrefetchRanks]);
      __builtin_prefetch(&labels[ahead]);
      __builtin_prefetch(&accumulator[ahead]);
    }
    const double match_r = match(r - 1);
    value += (match_r - match_next) * (g_gap + steps[r]);
    accumulator[static_cast<size_t>(order[r - 1])] += value;
    match_next = match_r;
  }
}

}  // namespace

void FoldCorrectedKnnShapley(std::span<const int> order,
                             const FoldLabels& labels, int test_label, int k,
                             std::span<const double> steps,
                             std::span<double> accumulator) {
  ScopedPhase span(Phase::kRecursion);
  KNNSHAP_CHECK(!order.empty() && order.size() == steps.size(),
                "fold needs the full order");
  if (labels.codes.empty()) {
    FoldCorrected(order, labels.labels, test_label, k, steps, accumulator);
  } else {
    FoldCorrected(order, std::span<const uint8_t>(labels.codes),
                  labels.Code(test_label), k, steps, accumulator);
  }
}

std::vector<double> CorrectedKnnShapleyFromOrder(std::span<const int> order,
                                                 std::span<const int> labels,
                                                 int test_label, int k) {
  // Span covers ranking-to-SV work: label gather, recursion, scatter.
  ScopedPhase span(Phase::kRecursion);
  std::vector<int> sorted_labels(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_labels[i] = labels[static_cast<size_t>(order[i])];
  }
  std::vector<double> by_rank =
      CorrectedKnnShapleyRecursion(sorted_labels, test_label, k);
  std::vector<double> sv(labels.size(), 0.0);
  for (size_t i = 0; i < order.size(); ++i) {
    sv[static_cast<size_t>(order[i])] = by_rank[i];
  }
  return sv;
}

size_t TruncatedCorrectedEffectiveRank(size_t r, size_t n, int k) {
  // The accumulated c_i coefficients read ranks down to K, so the prefix
  // must reach it. (The N-1 < K regime never asks for a prefix at all.)
  (void)n;
  return std::max(r, static_cast<size_t>(k));
}

std::vector<double> TruncatedCorrectedKnnShapleyFromOrder(
    std::span<const int> order_prefix, std::span<const int> labels,
    int test_label, int k) {
  const size_t n = labels.size();
  KNNSHAP_CHECK(n >= 1, "empty training set");
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  const int ni = static_cast<int>(n);
  double total_matches = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] == test_label) total_matches += 1.0;
  }
  const double base0 = SmallCoalitionTerm(0.0, total_matches, ni, k);
  const double base1 = SmallCoalitionTerm(1.0, total_matches, ni, k);
  if (ni - 1 < k) {
    // No coalition ever reaches size K, so only the rank-independent term
    // exists: exact values from labels alone, the ranking is irrelevant.
    std::vector<double> sv(n);
    for (size_t i = 0; i < n; ++i) {
      sv[i] = labels[i] == test_label ? base1 : base0;
    }
    return sv;
  }
  const size_t r = order_prefix.size();
  KNNSHAP_CHECK(r >= static_cast<size_t>(k) && r < n,
                "prefix length must be TruncatedCorrectedEffectiveRank and < n");
  ScopedPhase span(Phase::kRecursion);
  // Tail points get their rank-independent term; the dropped rank-dependent
  // sum is bounded by c_r for every one of them.
  std::vector<double> sv(n);
  for (size_t i = 0; i < n; ++i) {
    sv[i] = labels[i] == test_label ? base1 : base0;
  }
  auto match = [&](int rank) {  // rank is 1-based, within the prefix
    const int row = order_prefix[static_cast<size_t>(rank - 1)];
    return labels[static_cast<size_t>(row)] == test_label ? 1.0 : 0.0;
  };
  // phi_r = g(a_r) + sum_{i=r}^{R-1} (a_i - a_{i+1}) c_i, accumulated
  // backwards from the truncation point (rank R keeps its g(a) value,
  // absorbing the whole dropped sum into the error bound).
  const double nd = static_cast<double>(ni);
  double acc = 0.0;
  for (int i = static_cast<int>(r) - 1; i >= 1; --i) {
    const double c = 1.0 / static_cast<double>(std::max(i, k)) - 1.0 / nd;
    acc += (match(i) - match(i + 1)) * c;
    const size_t row = static_cast<size_t>(order_prefix[static_cast<size_t>(i - 1)]);
    sv[row] = (match(i) == 1.0 ? base1 : base0) + acc;
  }
  return sv;
}

double TruncatedCorrectedKnnShapleyBound(size_t r, size_t n, int k) {
  if (n == 0 || r >= n) return 0.0;
  if (static_cast<size_t>(k) >= n) return 0.0;  // N-1 < K: exact already.
  r = std::max<size_t>(r, 1);
  return 1.0 / static_cast<double>(r) - 1.0 / static_cast<double>(n);
}

}  // namespace knnshap
