// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/multi_seller_shapley.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "knn/knn_classifier.h"
#include "knn/knn_regressor.h"
#include "knn/neighbors.h"
#include "util/binomial.h"
#include "util/common.h"

namespace knnshap {

namespace {

// Sort key: (distance to query, row id). The id tiebreak makes every
// ranking decision — top-K membership, max-of-S, G membership — mutually
// consistent under duplicate distances.
using RowKey = std::pair<double, int>;

double EvaluateUtility(const Dataset& train, std::span<const int> rows,
                       std::span<const float> query, int test_label,
                       double test_target, const MultiSellerShapleyOptions& options) {
  switch (options.task) {
    case KnnTask::kClassification:
      return UnweightedKnnClassUtility(train, rows, query, test_label, options.k,
                                       options.metric);
    case KnnTask::kWeightedClassification:
      return WeightedKnnClassUtility(train, rows, query, test_label, options.k,
                                     options.weights, options.metric);
    case KnnTask::kRegression:
      return UnweightedKnnRegressionUtility(train, rows, query, test_target, options.k,
                                            options.metric);
    case KnnTask::kWeightedRegression:
      return WeightedKnnRegressionUtility(train, rows, query, test_target, options.k,
                                          options.weights, options.metric);
  }
  KNNSHAP_CHECK(false, "unknown task");
}

// One element of the collection A: a realizable top-K set.
struct TopKPattern {
  std::vector<int> rows;     // Top-K rows, ascending by key.
  std::vector<int> sellers;  // h(S): owners contributing to the top-K, sorted.
  RowKey max_key;            // Key of the farthest row in S.
  double value;              // nu(S).
};

void ForEachCombination(int pool, int size,
                        const std::function<void(const std::vector<int>&)>& fn) {
  if (size > pool) return;
  std::vector<int> idx(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) idx[static_cast<size_t>(i)] = i;
  for (;;) {
    fn(idx);
    int pos = size - 1;
    while (pos >= 0 && idx[static_cast<size_t>(pos)] == pool - size + pos) --pos;
    if (pos < 0) break;
    ++idx[static_cast<size_t>(pos)];
    for (int q = pos + 1; q < size; ++q) {
      idx[static_cast<size_t>(q)] = idx[static_cast<size_t>(q - 1)] + 1;
    }
  }
}

}  // namespace

std::vector<double> MultiSellerShapleySingle(const Dataset& train,
                                             const OwnerAssignment& owners,
                                             std::span<const float> query,
                                             int test_label, double test_target,
                                             const MultiSellerShapleyOptions& options,
                                             const CorpusNorms* norms) {
  const int m = owners.NumSellers();
  const int k = options.k;
  KNNSHAP_CHECK(m >= 1 && k >= 1, "bad arguments");
  KNNSHAP_CHECK(owners.NumRows() == train.Size(), "ownership map size mismatch");

  // Per-row keys (one batched kernel pass) and per-seller rows sorted by key.
  std::vector<double> dist =
      AllDistances(train.features, query, options.metric, norms);
  auto key_of = [&](int row) {
    return RowKey{dist[static_cast<size_t>(row)], row};
  };
  std::vector<std::vector<int>> seller_rows(static_cast<size_t>(m));
  std::vector<RowKey> nearest_key(static_cast<size_t>(m));
  for (int s = 0; s < m; ++s) {
    seller_rows[static_cast<size_t>(s)] = owners.RowsOf(s);
    auto& rows = seller_rows[static_cast<size_t>(s)];
    std::sort(rows.begin(), rows.end(),
              [&](int a, int b) { return key_of(a) < key_of(b); });
    // Only the seller's K nearest rows can ever appear in a top-K set.
    if (rows.size() > static_cast<size_t>(k)) rows.resize(static_cast<size_t>(k));
    nearest_key[static_cast<size_t>(s)] = key_of(rows.front());
  }
  std::vector<RowKey> sorted_nearest = nearest_key;
  std::sort(sorted_nearest.begin(), sorted_nearest.end());
  // Number of sellers whose *nearest* row ranks strictly beyond `key`.
  auto sellers_beyond = [&](const RowKey& key) {
    auto it = std::upper_bound(sorted_nearest.begin(), sorted_nearest.end(), key);
    return static_cast<int>(sorted_nearest.end() - it);
  };

  // Enumerate A: realizable top-K patterns (plus the empty pattern).
  std::vector<TopKPattern> patterns;
  {
    TopKPattern empty;
    empty.max_key = {-std::numeric_limits<double>::infinity(), -1};
    empty.value = EvaluateUtility(train, {}, query, test_label, test_target, options);
    patterns.push_back(std::move(empty));
  }
  std::vector<int> chosen;
  std::vector<int> merged;
  for (int t = 1; t <= std::min(k, m); ++t) {
    ForEachCombination(m, t, [&](const std::vector<int>& idx) {
      // Merge the chosen sellers' rows and keep the K nearest.
      merged.clear();
      for (int s : idx) {
        const auto& rows = seller_rows[static_cast<size_t>(s)];
        merged.insert(merged.end(), rows.begin(), rows.end());
      }
      std::sort(merged.begin(), merged.end(),
                [&](int a, int b) { return key_of(a) < key_of(b); });
      if (merged.size() > static_cast<size_t>(k)) merged.resize(static_cast<size_t>(k));
      // Keep only patterns where every listed seller contributes a row;
      // coalition groups whose top-K involves fewer sellers are generated
      // by the smaller combination.
      std::vector<uint8_t> contributes(static_cast<size_t>(m), 0);
      for (int row : merged) contributes[static_cast<size_t>(owners.OwnerOf(row))] = 1;
      for (int s : idx) {
        if (!contributes[static_cast<size_t>(s)]) return;
      }
      TopKPattern pattern;
      pattern.rows = merged;
      pattern.sellers = idx;
      pattern.max_key = key_of(merged.back());
      pattern.value =
          EvaluateUtility(train, pattern.rows, query, test_label, test_target, options);
      patterns.push_back(std::move(pattern));
    });
  }

  // Group weights: weight[h][g] = sum_{t=0}^{g} binom(g,t) * (Shapley
  // kernel at coalition size h+t). Theorem 8 (data-only) vs Theorem 12
  // (composite) differ only in the kernel.
  const int max_h = std::min(k, m);
  std::vector<std::vector<double>> weight(static_cast<size_t>(max_h) + 1,
                                          std::vector<double>(static_cast<size_t>(m), 0.0));
  for (int h = 0; h <= max_h; ++h) {
    for (int g = 0; g <= m - 1 - h; ++g) {
      double total = 0.0;
      for (int t = 0; t <= g; ++t) {
        if (options.composite_game) {
          total += ChooseRatio(g, t, m, h + t + 1) / static_cast<double>(m + 1);
        } else {
          total += ChooseRatio(g, t, m - 1, h + t) / static_cast<double>(m);
        }
      }
      weight[static_cast<size_t>(h)][static_cast<size_t>(g)] = total;
    }
  }

  // Accumulate Eq (84) / Eq (96) per seller.
  std::vector<double> sv(static_cast<size_t>(m), 0.0);
  std::vector<int> with_j;
  for (int j = 0; j < m; ++j) {
    const auto& j_rows = seller_rows[static_cast<size_t>(j)];
    for (const auto& pattern : patterns) {
      if (std::binary_search(pattern.sellers.begin(), pattern.sellers.end(), j)) {
        continue;
      }
      // |G(S, j)|: sellers beyond the farthest row of S, excluding j. A
      // pattern with fewer than K rows admits no free extensions: its
      // top-K has room, so any added seller's rows enter it and change
      // the pattern (the empty pattern is the extreme case).
      int g;
      if (pattern.rows.size() < static_cast<size_t>(k)) {
        g = 0;
      } else {
        g = sellers_beyond(pattern.max_key);
        if (nearest_key[static_cast<size_t>(j)] > pattern.max_key) --g;
      }
      int h = static_cast<int>(pattern.sellers.size());
      // nu(topK(h(S) u {j})): merge S with j's rows, keep the K nearest.
      with_j = pattern.rows;
      with_j.insert(with_j.end(), j_rows.begin(), j_rows.end());
      std::sort(with_j.begin(), with_j.end(),
                [&](int a, int b) { return key_of(a) < key_of(b); });
      if (with_j.size() > static_cast<size_t>(k)) with_j.resize(static_cast<size_t>(k));
      double with_value =
          EvaluateUtility(train, with_j, query, test_label, test_target, options);
      sv[static_cast<size_t>(j)] += weight[static_cast<size_t>(h)][static_cast<size_t>(g)] *
                                    (with_value - pattern.value);
    }
  }
  return sv;
}

std::vector<double> MultiSellerShapley(const Dataset& train,
                                       const OwnerAssignment& owners,
                                       const Dataset& test,
                                       const MultiSellerShapleyOptions& options,
                                       bool parallel) {
  const CorpusNorms norms = NormsForMetric(train.features, options.metric);
  return MeanOverQueries(
      test.Size(), static_cast<size_t>(owners.NumSellers()), parallel, [&](size_t j) {
        const int label = test.HasLabels() ? test.labels[j] : 0;
        const double target = test.HasTargets() ? test.targets[j] : 0.0;
        return MultiSellerShapleySingle(train, owners, test.features.Row(j), label,
                                        target, options, &norms);
      });
}

}  // namespace knnshap
