// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/exact_knn_shapley.h"

#include <algorithm>

#include "core/utility.h"
#include "knn/ranking.h"
#include "obs/trace.h"
#include "util/common.h"

namespace knnshap {

std::vector<double> KnnShapleyRecursion(const std::vector<int>& sorted_labels,
                                        int test_label, int k) {
  const int n = static_cast<int>(sorted_labels.size());
  KNNSHAP_CHECK(n >= 1, "empty training set");
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  std::vector<double> sv(static_cast<size_t>(n), 0.0);
  const double kd = static_cast<double>(k);

  // Farthest point (Eq 6, generalized to K > N via min(K, N)).
  double match_n = sorted_labels[static_cast<size_t>(n - 1)] == test_label ? 1.0 : 0.0;
  sv[static_cast<size_t>(n - 1)] =
      match_n * static_cast<double>(std::min(k, n)) / (static_cast<double>(n) * kd);

  // Backward recursion (Eq 7); i below is the 1-based rank.
  for (int i = n - 1; i >= 1; --i) {
    double match_i = sorted_labels[static_cast<size_t>(i - 1)] == test_label ? 1.0 : 0.0;
    double match_next = sorted_labels[static_cast<size_t>(i)] == test_label ? 1.0 : 0.0;
    sv[static_cast<size_t>(i - 1)] =
        sv[static_cast<size_t>(i)] +
        (match_i - match_next) / kd * static_cast<double>(std::min(k, i)) /
            static_cast<double>(i);
  }
  return sv;
}

std::vector<double> KnnShapleyClosedForm(const std::vector<int>& sorted_labels,
                                         int test_label, int k) {
  const int n = static_cast<int>(sorted_labels.size());
  KNNSHAP_CHECK(n >= 1 && k >= 1, "bad arguments");
  std::vector<double> sv(static_cast<size_t>(n), 0.0);
  auto match = [&](int rank) {  // rank is 1-based
    return sorted_labels[static_cast<size_t>(rank - 1)] == test_label ? 1.0 : 0.0;
  };
  // Suffix sums T(i) = sum_{j=i+1}^{N} 1[y_j = y]/(j (j-1)), per Eq (45).
  std::vector<double> suffix(static_cast<size_t>(n) + 2, 0.0);
  for (int j = n; j >= 2; --j) {
    suffix[static_cast<size_t>(j - 1)] =
        suffix[static_cast<size_t>(j)] +
        match(j) / (static_cast<double>(j) * static_cast<double>(j - 1));
  }
  const int kc = std::min(k, n);
  for (int i = 1; i <= n; ++i) {
    if (i >= k) {
      // Eq (45) (covers i = N since the suffix there is empty).
      sv[static_cast<size_t>(i - 1)] =
          match(i) / static_cast<double>(i) - suffix[static_cast<size_t>(i)];
    } else {
      // Eq (46); the suffix starts at min(K, N) so that K > N degenerates
      // to s_i = 1[y_i = y]/K, matching the recursion.
      sv[static_cast<size_t>(i - 1)] =
          match(i) / static_cast<double>(k) - suffix[static_cast<size_t>(kc)];
    }
  }
  return sv;
}

std::vector<double> ExactKnnShapleyFromOrder(std::span<const int> order,
                                             std::span<const int> labels,
                                             int test_label, int k) {
  // Span covers ranking-to-SV work: label gather, recursion, scatter.
  ScopedPhase span(Phase::kRecursion);
  std::vector<int> sorted_labels(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_labels[i] = labels[static_cast<size_t>(order[i])];
  }
  std::vector<double> by_rank = KnnShapleyRecursion(sorted_labels, test_label, k);
  std::vector<double> sv(labels.size(), 0.0);
  for (size_t i = 0; i < order.size(); ++i) {
    sv[static_cast<size_t>(order[i])] = by_rank[i];
  }
  return sv;
}

std::vector<double> ExactKnnShapleySteps(size_t n, int k) {
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  std::vector<double> steps(n, 0.0);
  const double kd = static_cast<double>(k);
  for (size_t i = 1; i < n; ++i) {
    // KnnShapleyRecursion's operation order with the difference taken out.
    steps[i] = 1.0 / kd * static_cast<double>(std::min<size_t>(k, i)) /
               static_cast<double>(i);
  }
  return steps;
}

FoldLabels::FoldLabels(std::span<const int> labels) : labels(labels) {
  distinct.assign(labels.begin(), labels.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (distinct.size() > 255) return;
  codes.resize(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) codes[i] = Code(labels[i]);
}

uint8_t FoldLabels::Code(int label) const {
  const auto it = std::lower_bound(distinct.begin(), distinct.end(), label);
  return static_cast<uint8_t>(it != distinct.end() && *it == label
                                  ? it - distinct.begin()
                                  : static_cast<std::ptrdiff_t>(distinct.size()));
}

namespace {

template <typename Label>
void FoldExact(std::span<const int> order, std::span<const Label> labels,
               Label test_label, int k, std::span<const double> steps,
               std::span<double> accumulator) {
  const size_t n = order.size();
  auto match = [&](size_t rank) {  // rank is 0-based here
    return labels[static_cast<size_t>(order[rank])] == test_label ? 1.0 : 0.0;
  };
  double match_next = match(n - 1);
  double value = match_next * static_cast<double>(std::min<size_t>(k, n)) /
                 (static_cast<double>(n) * static_cast<double>(k));
  accumulator[static_cast<size_t>(order[n - 1])] += value;
  // The label gather and the accumulator add are random accesses; fetch
  // them ahead of the pass.
  for (size_t i = n - 1; i >= 1; --i) {
    if (i > kFoldPrefetchRanks) {
      const size_t ahead = static_cast<size_t>(order[i - 1 - kFoldPrefetchRanks]);
      __builtin_prefetch(&labels[ahead]);
      __builtin_prefetch(&accumulator[ahead]);
    }
    const double match_i = match(i - 1);
    value += (match_i - match_next) * steps[i];
    accumulator[static_cast<size_t>(order[i - 1])] += value;
    match_next = match_i;
  }
}

}  // namespace

void FoldExactKnnShapley(std::span<const int> order, const FoldLabels& labels,
                         int test_label, int k, std::span<const double> steps,
                         std::span<double> accumulator) {
  ScopedPhase span(Phase::kRecursion);
  KNNSHAP_CHECK(!order.empty() && order.size() == steps.size(),
                "fold needs the full order");
  if (labels.codes.empty()) {
    FoldExact(order, labels.labels, test_label, k, steps, accumulator);
  } else {
    FoldExact(order, std::span<const uint8_t>(labels.codes), labels.Code(test_label),
              k, steps, accumulator);
  }
}

size_t TruncatedExactEffectiveRank(size_t r, size_t n, int k) {
  // The i < K branch of Eq (46) reads the suffix at rank min(K, N), so the
  // prefix must reach it.
  return std::max(r, std::min(static_cast<size_t>(k), n));
}

std::vector<double> TruncatedExactKnnShapleyFromOrder(
    std::span<const int> order_prefix, std::span<const int> labels,
    int test_label, int k, size_t n) {
  ScopedPhase span(Phase::kRecursion);
  const size_t r = order_prefix.size();
  auto match = [&](int rank) {  // rank is 1-based, within the prefix
    const int row = order_prefix[static_cast<size_t>(rank - 1)];
    return labels[static_cast<size_t>(row)] == test_label ? 1.0 : 0.0;
  };
  // Truncated suffix sums T^(i) = sum_{j=i+1}^{r} 1[y_j = y]/(j (j-1));
  // the dropped tail is sum_{j>r} 1/(j(j-1)) <= 1/r - 1/N at most.
  const int ri = static_cast<int>(r);
  std::vector<double> suffix(r + 1, 0.0);
  for (int j = ri; j >= 2; --j) {
    suffix[static_cast<size_t>(j - 1)] =
        suffix[static_cast<size_t>(j)] +
        match(j) / (static_cast<double>(j) * static_cast<double>(j - 1));
  }
  // k <= r < n here, so min(K, N) = k.
  std::vector<double> sv(n, 0.0);
  for (int i = 1; i <= ri; ++i) {
    const double value =
        i >= k ? match(i) / static_cast<double>(i) - suffix[static_cast<size_t>(i)]
               : match(i) / static_cast<double>(k) - suffix[static_cast<size_t>(k)];
    sv[static_cast<size_t>(order_prefix[static_cast<size_t>(i - 1)])] = value;
  }
  return sv;
}

void FoldTruncatedExactKnnShapley(std::span<const int> order_prefix,
                                  std::span<const int> labels, int test_label,
                                  int k, std::span<double> accumulator) {
  ScopedPhase span(Phase::kRecursion);
  const size_t r = order_prefix.size();
  auto match = [&](size_t rank) {  // rank is 1-based, within the prefix
    const int row = order_prefix[rank - 1];
    return labels[static_cast<size_t>(row)] == test_label ? 1.0 : 0.0;
  };
  // TruncatedExactKnnShapleyFromOrder's sums and values in one backward
  // pass: `suffix` is T^(i) on arrival at rank i, and the ranks below K
  // read T^(K), which the pass has reached by then.
  const size_t ku = static_cast<size_t>(k);
  double suffix = 0.0;
  double suffix_at_k = 0.0;
  for (size_t i = r; i >= 1; --i) {
    if (i == ku) suffix_at_k = suffix;
    const double value = i >= ku ? match(i) / static_cast<double>(i) - suffix
                                 : match(i) / static_cast<double>(k) - suffix_at_k;
    accumulator[static_cast<size_t>(order_prefix[i - 1])] += value;
    if (i >= 2) {
      suffix += match(i) / (static_cast<double>(i) * static_cast<double>(i - 1));
    }
  }
}

double TruncatedExactKnnShapleyBound(size_t r, size_t n) {
  if (n == 0 || r >= n) return 0.0;
  r = std::max<size_t>(r, 1);
  const double head = 1.0 / static_cast<double>(r) - 1.0 / static_cast<double>(n);
  const double tail = 1.0 / static_cast<double>(r + 1);
  return std::max(head, tail);
}

std::vector<double> ExactKnnShapley(const Dataset& train, const Dataset& test, int k,
                                    bool parallel, Metric metric) {
  KNNSHAP_CHECK(train.HasLabels() && test.HasLabels(), "labels required");
  const size_t n = train.Size();
  const LocalRanking ranking(&train.features, metric);
  return MeanOverQueries(test.Size(), n, parallel, [&](size_t j) {
    static thread_local std::vector<double> dists;
    static thread_local std::vector<int> order;
    ranking.Rank(test.features.Row(j), n, &dists, &order);
    return ExactKnnShapleyFromOrder(order, train.labels, test.labels[j], k);
  });
}

}  // namespace knnshap
