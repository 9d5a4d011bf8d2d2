// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/weighted_knn_shapley.h"

#include <algorithm>
#include <functional>

#include "knn/knn_classifier.h"
#include "knn/knn_regressor.h"
#include "knn/ranking.h"
#include "obs/trace.h"
#include "util/binomial.h"
#include "util/common.h"

namespace knnshap {

namespace {

// Visits every `size`-combination of {0, ..., pool-1} (values are indices
// into a caller-side candidate array). Calls fn(combination).
void ForEachCombination(int pool, int size,
                        const std::function<void(const std::vector<int>&)>& fn) {
  KNNSHAP_CHECK(size >= 0 && pool >= 0, "bad combination arguments");
  if (size > pool) return;
  std::vector<int> idx(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) idx[static_cast<size_t>(i)] = i;
  for (;;) {
    fn(idx);
    // Advance to the next combination (standard odometer).
    int pos = size - 1;
    while (pos >= 0 &&
           idx[static_cast<size_t>(pos)] == pool - size + pos) {
      --pos;
    }
    if (pos < 0) break;
    ++idx[static_cast<size_t>(pos)];
    for (int q = pos + 1; q < size; ++q) {
      idx[static_cast<size_t>(q)] = idx[static_cast<size_t>(q - 1)] + 1;
    }
  }
}

// Evaluates the weighted utility on a set of *ranks* (1-based positions in
// the distance ordering). The subset has at most K+1 elements here, so the
// evaluation is O(K log K).
class RankUtility {
 public:
  RankUtility(const Dataset& train, std::span<const int> order,
              std::span<const float> query, int test_label, double test_target,
              const WeightedShapleyOptions& options)
      : train_(train),
        order_(order),
        query_(query),
        test_label_(test_label),
        test_target_(test_target),
        options_(options) {}

  double operator()(const std::vector<int>& ranks) const {
    rows_.clear();
    for (int r : ranks) rows_.push_back(order_[static_cast<size_t>(r - 1)]);
    switch (options_.task) {
      case KnnTask::kWeightedClassification:
        return WeightedKnnClassUtility(train_, rows_, query_, test_label_, options_.k,
                                       options_.weights, options_.metric);
      case KnnTask::kWeightedRegression:
        return WeightedKnnRegressionUtility(train_, rows_, query_, test_target_,
                                            options_.k, options_.weights,
                                            options_.metric);
      case KnnTask::kClassification:
        return UnweightedKnnClassUtility(train_, rows_, query_, test_label_, options_.k,
                                         options_.metric);
      case KnnTask::kRegression:
        return UnweightedKnnRegressionUtility(train_, rows_, query_, test_target_,
                                              options_.k, options_.metric);
    }
    KNNSHAP_CHECK(false, "unknown task");
  }

 private:
  const Dataset& train_;
  std::span<const int> order_;
  std::span<const float> query_;
  int test_label_;
  double test_target_;
  const WeightedShapleyOptions& options_;
  mutable std::vector<int> rows_;
};

}  // namespace

double WeightedShapleyEvalCount(int n, int k) {
  // s_N enumeration + (N-1) adjacent pairs, each enumerating subsets of
  // sizes 0..K-1 from N-2 candidates, two evaluations per subset.
  double evals = 0.0;
  for (int t = 0; t < k; ++t) evals += 2.0 * Choose(n - 1, t);
  double per_pair = 0.0;
  for (int t = 0; t < k; ++t) per_pair += 2.0 * Choose(n - 2, t);
  return evals + static_cast<double>(n - 1) * per_pair;
}

std::vector<double> ExactWeightedKnnShapleyFromOrder(
    const Dataset& train, std::span<const int> order, std::span<const float> query,
    int test_label, double test_target, const WeightedShapleyOptions& options) {
  const int n = static_cast<int>(train.Size());
  const int k = options.k;
  KNNSHAP_CHECK(n >= 2, "need at least two training points");
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  KNNSHAP_CHECK(order.size() == train.Size(), "full order required");

  // Everything after the ranking is coalition enumeration — the O(2^N)
  // part of the exact weighted method.
  ScopedPhase span(Phase::kRecursion);
  RankUtility nu(train, order, query, test_label, test_target, options);

  // Shapley weight of a group of coalitions in the relevant game. In the
  // data-only game a subset of size t among N-1 non-i players has weight
  // 1/(N binom(N-1, t)); in the composite game (Theorem 11) the analyst
  // must also be present, shifting the coalition size by one in an
  // (N+1)-player game: 1/((N+1) binom(N, t+1)).
  auto start_weight = [&](int t) {
    return options.composite_game
               ? 1.0 / (static_cast<double>(n + 1) * Choose(n, t + 1))
               : 1.0 / (static_cast<double>(n) * Choose(n - 1, t));
  };
  // Pair-difference weight for a singleton group of size k' (Lemma 1 and
  // its composite analog).
  auto pair_weight = [&](int t) {
    return options.composite_game
               ? 1.0 / (static_cast<double>(n) * Choose(n - 1, t + 1))
               : 1.0 / (static_cast<double>(n - 1) * Choose(n - 2, t));
  };

  std::vector<double> sv_by_rank(static_cast<size_t>(n), 0.0);

  // --- Starting point: the farthest training point (rank N). Only
  // coalitions with fewer than K data points give it nonzero marginal.
  {
    double total = 0.0;
    std::vector<int> candidate_ranks;  // every rank except N
    candidate_ranks.reserve(static_cast<size_t>(n - 1));
    for (int r = 1; r <= n - 1; ++r) candidate_ranks.push_back(r);
    std::vector<int> subset;
    for (int t = 0; t <= std::min(k - 1, n - 1); ++t) {
      double w = start_weight(t);
      ForEachCombination(n - 1, t, [&](const std::vector<int>& idx) {
        subset.clear();
        for (int q : idx) subset.push_back(candidate_ranks[static_cast<size_t>(q)]);
        // In the composite game the analyst alone is worth 0 (Eq 28), not
        // the data-only utility of no data (regression's is -y_test^2).
        double without =
            options.composite_game && subset.empty() ? 0.0 : nu(subset);
        subset.push_back(n);
        double with_n = nu(subset);
        total += w * (with_n - without);
      });
    }
    sv_by_rank[static_cast<size_t>(n - 1)] = total;
  }

  // --- Group weight M(r) for the size-(K-1) groups, shared across pairs
  // (depends on the data only through r = max rank of S' u {i, i+1}).
  std::vector<double> group_weight(static_cast<size_t>(n) + 1, 0.0);
  if (k - 1 <= n - 2) {
    for (int r = 2; r <= n; ++r) {
      double total = 0.0;
      for (int size = k - 1; size <= n - 2; ++size) {
        double count = Choose(n - r, size - (k - 1));
        if (count == 0.0) break;  // beyond available far-ranked elements
        total += options.composite_game
                     ? count / (static_cast<double>(n) * Choose(n - 1, size + 1))
                     : count / (static_cast<double>(n - 1) * Choose(n - 2, size));
      }
      group_weight[static_cast<size_t>(r)] = total;
    }
  }

  // --- Adjacent-pair recursion from rank N-1 down to rank 1.
  std::vector<int> candidate_ranks;
  candidate_ranks.reserve(static_cast<size_t>(n - 2));
  std::vector<int> with_i, with_next;
  for (int i = n - 1; i >= 1; --i) {
    candidate_ranks.clear();
    for (int r = 1; r <= n; ++r) {
      if (r != i && r != i + 1) candidate_ranks.push_back(r);
    }
    double diff = 0.0;
    // Singleton groups: |S'| = k' <= K-2 (every coalition of that size is
    // its own group).
    for (int t = 0; t <= std::min(k - 2, n - 2); ++t) {
      double w = pair_weight(t);
      ForEachCombination(n - 2, t, [&](const std::vector<int>& idx) {
        with_i.clear();
        with_next.clear();
        for (int q : idx) {
          int r = candidate_ranks[static_cast<size_t>(q)];
          with_i.push_back(r);
          with_next.push_back(r);
        }
        with_i.push_back(i);
        with_next.push_back(i + 1);
        diff += w * (nu(with_i) - nu(with_next));
      });
    }
    // Size-(K-1) groups with the closed-form extension count M(r).
    if (k - 1 <= n - 2) {
      ForEachCombination(n - 2, k - 1, [&](const std::vector<int>& idx) {
        with_i.clear();
        with_next.clear();
        int max_rank = i + 1;
        for (int q : idx) {
          int r = candidate_ranks[static_cast<size_t>(q)];
          with_i.push_back(r);
          with_next.push_back(r);
          max_rank = std::max(max_rank, r);
        }
        with_i.push_back(i);
        with_next.push_back(i + 1);
        diff += group_weight[static_cast<size_t>(max_rank)] *
                (nu(with_i) - nu(with_next));
      });
    }
    sv_by_rank[static_cast<size_t>(i - 1)] = sv_by_rank[static_cast<size_t>(i)] + diff;
  }

  std::vector<double> sv(train.Size(), 0.0);
  for (size_t i = 0; i < order.size(); ++i) {
    sv[static_cast<size_t>(order[i])] = sv_by_rank[i];
  }
  return sv;
}

std::vector<double> ExactWeightedKnnShapley(const Dataset& train, const Dataset& test,
                                            const WeightedShapleyOptions& options,
                                            bool parallel) {
  const size_t n = train.Size();
  const LocalRanking ranking(&train.features, options.metric);
  return MeanOverQueries(test.Size(), n, parallel, [&](size_t j) {
    std::vector<double> dists;
    std::vector<int> order;
    ranking.Rank(test.features.Row(j), n, &dists, &order);
    const int label = test.HasLabels() ? test.labels[j] : 0;
    const double target = test.HasTargets() ? test.targets[j] : 0.0;
    return ExactWeightedKnnShapleyFromOrder(train, order, test.features.Row(j), label,
                                            target, options);
  });
}

}  // namespace knnshap
