// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Ranking — where a query's (distance, index) ranking of the corpus comes
// from. Theorem 1's recursion, Theorem 2's truncation, Theorems 6 and 7
// and the follow-ups (exact-corrected, weighted-fast) all start from it,
// so the ranked valuators (engine/valuators.h) and core's multi-test
// wrappers ask this one seam for it and run the same code on every
// topology. LocalRanking (here) ranks the in-process corpus with
// RankByDistance and is the unsharded server's only path; ShardRanking
// (shard/shard_ranking.h) orders what spawned or remote shard workers
// send — distance columns sorted once at full rank, exact candidate runs
// merged below it — which is the same ranking bit for bit
// (knn/selection.h).

#ifndef KNNSHAP_KNN_RANKING_H_
#define KNNSHAP_KNN_RANKING_H_

#include <span>
#include <vector>

#include "knn/distance_kernel.h"
#include "knn/metric.h"
#include "knn/neighbors.h"
#include "util/common.h"
#include "util/matrix.h"
#include "util/status.h"

namespace knnshap {

/// A fitted corpus's ranking source; Rank is thread-safe.
class Ranking {
 public:
  virtual ~Ranking() = default;

  /// Distances from `query` to every corpus row into *dists (resized to
  /// the corpus size) and the first min(r, N) rows of the ascending
  /// (distance, index) order into *order. Returns false when no usable
  /// ranking was produced (a shard worker failed; Health() says why).
  /// Once the active CancelToken fires the outputs may be stale: callers
  /// poll CancelRequested() and discard them.
  virtual bool Rank(std::span<const float> query, size_t r,
                    std::vector<double>* dists,
                    std::vector<int>* order) const = 0;

  /// Latched non-OK by a shard ranking whose worker failed.
  virtual Status Health() const { return Status::Ok(); }
};

/// The ranking of an in-process corpus (which must outlive it). Owns the
/// corpus norms, so the norm work amortizes across every query.
class LocalRanking : public Ranking {
 public:
  LocalRanking(const Matrix* corpus, Metric metric)
      : corpus_(corpus), metric_(metric), norms_(NormsForMetric(*corpus, metric)) {}

  bool Rank(std::span<const float> query, size_t r, std::vector<double>* dists,
            std::vector<int>* order) const override {
    ResizeScratch(dists, corpus_->Rows());
    RankByDistance(*corpus_, query, r, metric_, &norms_, *dists, order);
    return true;
  }

 private:
  const Matrix* corpus_;
  Metric metric_;
  CorpusNorms norms_;
};

}  // namespace knnshap

#endif  // KNNSHAP_KNN_RANKING_H_
