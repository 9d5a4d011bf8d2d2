// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Built-in Valuator adapters, one per algorithm family of the paper:
//
//   exact            Theorem 1 / Algorithm 1   O(N log N) exact recursion
//   exact-corrected  arXiv:2304.04258          min(K,|S|)-normalized utility
//   truncated   Theorem 2                 top-K* truncation
//   lsh         Theorems 3-4              LSH retrieval, contrast-tuned
//   mc          Algorithm 2 / Theorem 5   improved Monte-Carlo estimator
//   weighted    Theorem 7                 exact weighted KNN, O(N^K)
//   weighted-fast  arXiv:2401.11103       discretized weighted KNN, O(N^2)
//   regression  Theorem 6                 exact unweighted KNN regression
//
// Each adapter is a thin shim over the corresponding src/core function, so
// the engine path produces bit-identical values to the standalone entry
// points (see the contract in engine/valuator.h). Adapters build their
// retrieval structure once in Fit — the ranking of the six ranked
// methods, the lsh index — and reuse it across every subsequent batch:
// the serving win the engine exists for.

#ifndef KNNSHAP_ENGINE_VALUATORS_H_
#define KNNSHAP_ENGINE_VALUATORS_H_

#include <memory>
#include <span>
#include <vector>

#include "core/exact_knn_shapley.h"
#include "core/wknn_shapley.h"
#include "engine/valuator.h"
#include "knn/ranking.h"
#include "lsh/lsh_index.h"

namespace knnshap {

/// Base of the methods whose recursion starts from the query's (distance,
/// index) ranking of the corpus: exact, exact-corrected, truncated,
/// weighted-fast, weighted and regression. Fit builds the Ranking once
/// (knn/ranking.h) — a LocalRanking, or a ShardRanking
/// (shard/shard_ranking.h) when fitted with a shard context — and fixes
/// the method's ranking depth; each query then ranks to that depth and
/// runs the method's recursion on the result, the same code on every
/// topology. Health() is the ranking's.
class RankedValuator : public Valuator {
 public:
  using Valuator::Valuator;
  void ValueOne(const Dataset& test, size_t row, QueryValues* out) const final;
  Status Health() const override;

 protected:
  /// Builds the ranking of Train() under `metric`; queries rank the first
  /// min(depth, N) rows (0: none at all).
  void FitRanking(Metric metric, size_t depth);

  /// The method's recursion for query `row` of `test`: `out->order` holds
  /// its first min(depth, N) rows ascending by (distance, index), `dists`
  /// every row's distance, and `out->label` its label. Leaves `out` in
  /// rank space, or dense with `order` cleared (see QueryValues).
  virtual void FromRanking(std::span<const double> dists, const Dataset& test,
                           size_t row, QueryValues* out) const = 0;

 private:
  std::unique_ptr<Ranking> ranking_;
  size_t depth_ = 0;
};

/// Exact recursion of Theorem 1 over the full ranking.
/// params.approx_error > 0 switches to the truncated-exact path: only the
/// top TruncatedExactEffectiveRank ranks (streaming top-R selection, no
/// full argsort), with the analytic tail bound reported as approx_bound.
/// Queries stay in rank space: MergeInto runs the recursion on each
/// query's order as it folds it (FoldExactKnnShapley at full depth, with
/// steps built once at fit; FoldTruncatedExactKnnShapley on a prefix).
class ExactValuator : public RankedValuator {
 public:
  using RankedValuator::RankedValuator;
  const char* Method() const override { return "exact"; }
  void MergeInto(std::vector<double>* accumulator,
                 const QueryValues& one_query) const override;

 protected:
  void OnFit() override;
  void FromRanking(std::span<const double> dists, const Dataset& test,
                   size_t row, QueryValues* out) const override;

 private:
  // Full depth only: ExactKnnShapleySteps(N, k) and the corpus labels.
  std::vector<double> steps_;
  std::unique_ptr<FoldLabels> fold_labels_;
};

/// Corrected exact recursion (Wang & Jia, arXiv:2304.04258): the KNN
/// utility normalized by min(K, |S|) — the vote count a soft-label KNN
/// classifier actually uses on coalitions smaller than K — instead of the
/// source paper's constant K. Same ranking depths as ExactValuator. A
/// full-depth query folds in rank space (FoldCorrectedKnnShapley); a
/// truncated one values every row, so it stays dense.
class CorrectedValuator : public RankedValuator {
 public:
  using RankedValuator::RankedValuator;
  const char* Method() const override { return "exact-corrected"; }
  void MergeInto(std::vector<double>* accumulator,
                 const QueryValues& one_query) const override;

 protected:
  void OnFit() override;
  void FromRanking(std::span<const double> dists, const Dataset& test,
                   size_t row, QueryValues* out) const override;

 private:
  // Full depth only: CorrectedKnnShapleySteps(N, k) and the corpus labels.
  std::vector<double> steps_;
  std::unique_ptr<FoldLabels> fold_labels_;
};

/// (epsilon, 0)-approximation of Theorem 2: only the K* nearest neighbors
/// carry value. Each query ranks exactly the top min(K*, N) by L2 (the
/// schema declares no metric) and runs the truncated recursion on them.
class TruncatedValuator : public RankedValuator {
 public:
  using RankedValuator::RankedValuator;
  const char* Method() const override { return "truncated"; }

 protected:
  void OnFit() override;
  void FromRanking(std::span<const double> dists, const Dataset& test,
                   size_t row, QueryValues* out) const override;
};

/// (epsilon, delta)-approximation of Theorem 4: LSH retrieval of the K*
/// nearest neighbors. Fit normalizes a private corpus copy to D_mean = 1,
/// estimates the relative contrast, and builds a Theorem-3-tuned index —
/// the same pipeline as StreamingValuator, and bit-identical to it on any
/// fixed query sequence.
class LshValuator : public Valuator {
 public:
  using Valuator::Valuator;
  const char* Method() const override { return "lsh"; }
  void ValueOne(const Dataset& test, size_t row, QueryValues* out) const override;
  void Finalize(std::vector<double>* accumulator, size_t num_queries) const override;

  int KStarDepth() const { return k_star_; }
  double Contrast() const { return contrast_; }
  const LshConfig* Config() const { return index_ ? &index_->Config() : nullptr; }

 protected:
  void OnFit() override;

 private:
  Dataset corpus_;  // normalized private copy
  int k_star_ = 0;
  double scale_ = 1.0;
  double contrast_ = 0.0;
  std::unique_ptr<LshIndex> index_;
};

/// Improved Monte-Carlo estimator (Algorithm 2). Batch-only: permutation
/// sampling amortizes over the whole test utility, so there is no per-query
/// decomposition to shard.
class McValuator : public Valuator {
 public:
  using Valuator::Valuator;
  const char* Method() const override { return "mc"; }
  bool SupportsPerQuery() const override { return false; }
  std::vector<double> ValueBatch(const Dataset& test) const override;

 protected:
  void OnFit() override;
};

/// Quadratic-time WKNN-Shapley (arXiv:2401.11103): exact SVs of the
/// discretized-weight Eq-26 classifier in O(N^2 K 4^b)/query, with an
/// optional deterministic truncation budget (params.approx_error), over
/// the full ranking and its raw distances. Fit also precomputes the
/// (N, K) coalition-weight tables every query on the corpus shares.
class WeightedFastValuator : public RankedValuator {
 public:
  using RankedValuator::RankedValuator;
  const char* Method() const override { return "weighted-fast"; }

 protected:
  void OnFit() override;
  void FromRanking(std::span<const double> dists, const Dataset& test,
                   size_t row, QueryValues* out) const override;

 private:
  std::unique_ptr<WknnCoalitionWeights> coalition_;
};

/// Exact weighted KNN values (Theorem 7), classification or regression per
/// params.task, over the full ranking. O(N^K) per query — small K only.
class WeightedValuator : public RankedValuator {
 public:
  using RankedValuator::RankedValuator;
  const char* Method() const override { return "weighted"; }

 protected:
  void OnFit() override;
  void FromRanking(std::span<const double> dists, const Dataset& test,
                   size_t row, QueryValues* out) const override;
};

/// Exact unweighted KNN regression values (Theorem 6) over the full
/// ranking.
class RegressionValuator : public RankedValuator {
 public:
  using RankedValuator::RankedValuator;
  const char* Method() const override { return "regression"; }

 protected:
  void OnFit() override;
  void FromRanking(std::span<const double> dists, const Dataset& test,
                   size_t row, QueryValues* out) const override;
};

}  // namespace knnshap

#endif  // KNNSHAP_ENGINE_VALUATORS_H_
