// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/lsh_knn_shapley.h"

#include <algorithm>
#include <cmath>

#include "core/exact_knn_shapley.h"
#include "dataset/contrast.h"
#include "obs/trace.h"
#include "lsh/tuning.h"
#include "util/common.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace knnshap {

LshCorpusPrep PrepareCorpusForRetrieval(Dataset* corpus, int k, double epsilon,
                                        uint64_t seed, size_t contrast_sample) {
  KNNSHAP_CHECK(corpus != nullptr && corpus->Size() >= 2, "corpus too small");
  LshCorpusPrep prep;
  prep.k_star = KStar(k, epsilon);
  Rng rng(seed);
  size_t sample = std::min(contrast_sample, corpus->Size());
  ContrastEstimate est = EstimateRelativeContrast(
      *corpus, *corpus,
      std::min<int>(prep.k_star + 1, static_cast<int>(corpus->Size()) - 1), sample,
      4 * sample, &rng);
  prep.contrast = est.c_k;
  if (est.d_mean > 0.0) {
    prep.scale = 1.0 / est.d_mean;
    corpus->features.Scale(prep.scale);
  }
  return prep;
}

LshConfig TuneForPreparedCorpus(size_t corpus_size, const LshCorpusPrep& prep,
                                double delta, uint64_t seed) {
  return TuneForContrast(corpus_size, std::max(prep.contrast, 1.01), prep.k_star,
                         delta, /*alpha=*/1.0, seed);
}

int KStar(int k, double epsilon) {
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  KNNSHAP_CHECK(epsilon > 0.0, "epsilon must be positive");
  double inv = std::ceil(1.0 / epsilon);
  return std::max(k, static_cast<int>(inv));
}

std::vector<double> TruncatedShapleyFromNeighbors(const Dataset& train,
                                                  std::span<const Neighbor> neighbors,
                                                  int test_label, int k, int k_star) {
  KNNSHAP_CHECK(k >= 1 && k_star >= k, "require k_star >= k >= 1");
  ScopedPhase span(Phase::kRecursion);
  const int r = static_cast<int>(neighbors.size());
  std::vector<double> sv(static_cast<size_t>(r), 0.0);
  if (r == 0) return sv;
  const double kd = static_cast<double>(k);
  auto match = [&](int rank) {  // 1-based rank into `neighbors`
    int row = neighbors[static_cast<size_t>(rank - 1)].index;
    return train.labels[static_cast<size_t>(row)] == test_label ? 1.0 : 0.0;
  };

  if (r >= static_cast<int>(train.Size())) {
    // Degenerate truncation (K* >= N): fall back to the exact recursion.
    std::vector<int> sorted_labels(static_cast<size_t>(r));
    for (int i = 0; i < r; ++i) {
      sorted_labels[static_cast<size_t>(i)] =
          train.labels[static_cast<size_t>(neighbors[static_cast<size_t>(i)].index)];
    }
    return KnnShapleyRecursion(sorted_labels, test_label, k);
  }

  // Anchor: ranks >= K* (and the deepest retrieved rank) get 0 (Eq 18).
  int anchor = std::min(r, k_star);
  // Backward recursion of Eq (19) from the anchor.
  for (int i = anchor - 1; i >= 1; --i) {
    sv[static_cast<size_t>(i - 1)] =
        sv[static_cast<size_t>(i)] +
        (match(i) - match(i + 1)) / kd * static_cast<double>(std::min(k, i)) /
            static_cast<double>(i);
  }
  return sv;
}

namespace {

// Shared implementation: retrieval_fn(j, k_star) returns the (approximate)
// top-K* neighbors of test row j, ascending.
template <typename RetrievalFn>
std::vector<double> TruncatedShapleyOverTests(const Dataset& train, const Dataset& test,
                                              int k, double epsilon, bool parallel,
                                              RetrievalFn retrieval_fn) {
  KNNSHAP_CHECK(train.HasLabels() && test.HasLabels(), "labels required");
  KNNSHAP_CHECK(test.Size() > 0, "empty test set");
  const int k_star = KStar(k, epsilon);
  const size_t n = train.Size();
  std::vector<std::vector<std::pair<int, double>>> sparse(test.Size());
  auto run_one = [&](size_t j) {
    std::vector<Neighbor> neighbors = retrieval_fn(j, k_star);
    std::vector<double> by_rank = TruncatedShapleyFromNeighbors(
        train, neighbors, test.labels[j], k, k_star);
    auto& out = sparse[j];
    out.reserve(neighbors.size());
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (by_rank[i] != 0.0) out.emplace_back(neighbors[i].index, by_rank[i]);
    }
  };
  if (parallel) {
    ThreadPool::Shared().ParallelForHelping(test.Size(), run_one);
  } else {
    for (size_t j = 0; j < test.Size(); ++j) run_one(j);
  }
  std::vector<double> sv(n, 0.0);
  for (const auto& contributions : sparse) {
    for (const auto& [row, value] : contributions) {
      sv[static_cast<size_t>(row)] += value;
    }
  }
  for (auto& s : sv) s /= static_cast<double>(test.Size());
  return sv;
}

}  // namespace

std::vector<double> TruncatedKnnShapley(const Dataset& train, const Dataset& test,
                                        int k, double epsilon, bool parallel) {
  const CorpusNorms norms(train.features);
  return TruncatedShapleyOverTests(
      train, test, k, epsilon, parallel, [&](size_t j, int k_star) {
        return TopKNeighbors(train.features, test.features.Row(j),
                             static_cast<size_t>(k_star), Metric::kL2, &norms);
      });
}

LshConfig TuneLshEmpirically(const Dataset& train, const Dataset& validation, int k,
                             double epsilon, double contrast, size_t max_tables,
                             double* achieved_error) {
  KNNSHAP_CHECK(validation.Size() > 0, "empty validation set");
  LshConfig config;
  config.width = SelectWidth(std::max(contrast, 1.01));
  config.num_projections = NumProjections(train.Size(), config.width);
  // Reference: exact values restricted to the validation queries. The
  // acceptance threshold keeps a 20% safety margin under epsilon so that
  // a borderline pass on the validation draw still generalizes to unseen
  // queries.
  std::vector<double> exact = ExactKnnShapley(train, validation, k);
  double error = 0.0;
  for (size_t tables = 2; tables <= max_tables; tables *= 2) {
    config.num_tables = tables;
    LshIndex index(&train.features, config);
    auto approx = LshKnnShapley(train, validation, k, epsilon, index);
    error = MaxAbsDifference(exact, approx);
    if (error <= 0.8 * epsilon) break;
  }
  if (achieved_error != nullptr) *achieved_error = error;
  return config;
}

std::vector<double> LshKnnShapley(const Dataset& train, const Dataset& test, int k,
                                  double epsilon, const LshIndex& index,
                                  LshShapleyStats* stats, bool parallel) {
  std::vector<LshQueryStats> query_stats(test.Size());
  auto sv = TruncatedShapleyOverTests(
      train, test, k, epsilon, parallel, [&](size_t j, int k_star) {
        return index.Query(test.features.Row(j), static_cast<size_t>(k_star),
                           &query_stats[j]);
      });
  if (stats != nullptr) {
    stats->queries = test.Size();
    double cand = 0.0, ret = 0.0;
    for (const auto& qs : query_stats) {
      cand += static_cast<double>(qs.candidates);
      ret += static_cast<double>(qs.returned);
    }
    stats->mean_candidates = cand / static_cast<double>(test.Size());
    stats->mean_returned = ret / static_cast<double>(test.Size());
  }
  return sv;
}

}  // namespace knnshap
