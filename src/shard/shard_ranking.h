// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardRanking — the corpus ranking served by shard workers. A Ranking
// (knn/ranking.h) that fans each query out to one ShardWorker per shard
// (shard_worker.h: an ordered replica list, where a spawned child is a
// group of one — see topology.h and socket_worker.h) and orders their
// replies into the global (distance, index) ranking. The valuators run
// their recursions on it unchanged, so every topology answers
// bit-identically to the unsharded server, which ranks in process
// through LocalRanking. At full rank every shard ships its distance
// column and the router sorts all rows once, with the call LocalRanking
// makes. Below it each shard ships the exact top-r of its contiguous
// rows, and the merge of those runs *is* the global top-r
// (knn/selection.h). The raw double distances cross the shard boundary
// losslessly (raw bits in the packed reply), so weighted-fast's kernel
// weights match too.
//
// Failure semantics: a fan-out that fails on a healthy topology (every
// replica of a shard died or answered garbage) latches Health() non-OK
// and Rank returns false — the valuator answers an empty vector, the
// engine checks Health() after the run, evicts the fitted entry and
// answers Unavailable + retry; the next request re-fits, re-dialing and
// respawning workers. A partial merge is never produced. A deadline that
// fires during the fan-out (the router's own token, or a worker's
// propagated deadline_exceeded) is the caller's to detect: it polls
// CancelRequested() after Rank.

#ifndef KNNSHAP_SHARD_SHARD_RANKING_H_
#define KNNSHAP_SHARD_SHARD_RANKING_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "knn/metric.h"
#include "knn/ranking.h"
#include "shard/shard_planner.h"
#include "shard/shard_worker.h"
#include "shard/topology.h"
#include "util/fingerprint.h"

namespace knnshap {

/// Orders every planned shard's decoded reply to one candidates request
/// of rank r into the global top-min(r, N) (distance, index) order, with
/// N = dists.size(). A shard whose rows r covers sent its distance column
/// and left its run empty. At r >= N every shard did, and one
/// ArgsortDistances orders all rows, as LocalRanking does. Below N, each
/// column shard's rows are sorted here into its run, and
/// MergeSortedCandidateRuns merges the runs.
void OrderShardReplies(std::span<const double> dists,
                       std::span<const ShardRange> plan, size_t r,
                       std::vector<std::vector<int>>* runs,
                       std::vector<int>* order);

class ShardRanking : public Ranking {
 public:
  /// Plans `corpus`'s shards from the context's digests (hashing the
  /// corpus when it carries none) and builds one worker per planned
  /// shard, connecting and syncing them concurrently on the shared pool.
  /// Throws on a bad topology (no worker command and no replicas, too few
  /// replica groups, a bad endpoint) and on a spawned worker that fails
  /// to start or sync; remote dial failures do not throw but surface
  /// through the first fan-out. `corpus` must outlive the ranking.
  ShardRanking(const Dataset& corpus, Metric metric, const ShardContext& context);

  bool Rank(std::span<const float> query, size_t r, std::vector<double>* dists,
            std::vector<int>* order) const override;
  Status Health() const override;

 private:
  /// Fan the query out to every worker (send to all, then gather). OK
  /// when every worker produced its reply; otherwise the first dead
  /// worker's Health(), or Unavailable when none is dead (a propagated
  /// deadline).
  Status FanOut(std::span<const float> query, size_t r, std::span<double> dists,
              std::vector<std::vector<int>>* runs) const;

  size_t rows_;
  std::vector<ShardRange> plan_;
  /// Kept alive for the workers, which sync from these digests on every
  /// replica (re)connect.
  std::shared_ptr<const CorpusDigests> digests_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;

  /// Fan-outs are serialized: each worker's connection is a single-lane
  /// channel, and queries arrive concurrently from the pool. The lock
  /// also guards the workers' Health().
  mutable std::mutex fan_out_mutex_;
  mutable std::mutex health_mutex_;
  mutable Status health_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SHARD_RANKING_H_
