// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardWorker — one shard's candidate server, behind a connection. A
// worker owns a planned ShardRange (shard_planner.h) and answers one kind
// of query: "distances + exact top-r candidate run over your rows".
// ShardRanking (shard_ranking.h) merges the runs into the ranking the
// recursions consume; because each worker's run is the exact restriction
// of the global (distance, index) order to its contiguous rows, the merge
// is bit-identical to the unsharded ranking.
//
// Every worker is a JSONL connection to another process (socket_worker.h):
// SocketShardWorker to a spawned child or one remote worker,
// ReplicaShardWorker to a remote replica group. The process on the other
// end runs ShardCandidates below behind its `candidates` op. A query
// splits into a send half and a read half, so the router can write every
// shard's request before it reads any reply (send-all-then-gather: the
// shards compute at once).
//
// Failure semantics of ReadCandidates(): `false` means "this fan-out
// produced no usable run". A false WITH Health() still OK is a propagated
// deadline (the worker answered deadline_exceeded off the forwarded
// remaining-ms budget — the parent's own token is the authority and is
// re-checked by the valuator); any other false latches a non-OK Health
// first.

#ifndef KNNSHAP_SHARD_SHARD_WORKER_H_
#define KNNSHAP_SHARD_SHARD_WORKER_H_

#include <span>
#include <vector>

#include "knn/distance_kernel.h"
#include "knn/metric.h"
#include "shard/shard_planner.h"
#include "util/matrix.h"
#include "util/status.h"

namespace knnshap {

/// The candidates kernel every worker runs: distances from `query` to
/// corpus rows [row_begin, row_end) into `dists` (one slot per row of the
/// range, bit-identical to the matching slice of a whole-corpus
/// ComputeDistances pass), then the range's exact top-min(r, rows) in
/// (distance, index) order, as global row indices, into *run. Local
/// selection equals the restriction of the global order: the index tie
/// break is monotone under the constant row offset. Returns false, with
/// *run cleared, when the active CancelToken expired during the distance
/// pass.
bool ShardCandidates(const Matrix& features, std::span<const float> query,
                     Metric metric, const CorpusNorms* norms, size_t row_begin,
                     size_t row_end, size_t r, std::span<double> dists,
                     std::vector<int>* run);

/// One shard's candidate server behind a connection.
class ShardWorker {
 public:
  explicit ShardWorker(ShardRange range) : range_(range) {}
  virtual ~ShardWorker() = default;

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Writes the candidates request. False when no reply will follow (the
  /// worker is dead; Health() says why), and the caller must not read.
  virtual bool SendCandidates(std::span<const float> query, size_t r) = 0;

  /// Reads the reply to the last successful SendCandidates: the shard's
  /// distances into the global row-indexed `dists` at [row_begin,
  /// row_end), and its exact top-min(r, Rows()) candidate row indices
  /// (global, ascending by (distance, index)) into *run (cleared first).
  /// Returns false when no usable run was produced (see header comment).
  /// The query is passed again so a replica group can retry it elsewhere.
  virtual bool ReadCandidates(std::span<const float> query, size_t r,
                              std::span<double> dists,
                              std::vector<int>* run) = 0;

  /// Liveness, latched non-OK on peer death or garbage. Thread-safe.
  virtual Status Health() const = 0;

  const ShardRange& Range() const { return range_; }

 protected:
  ShardRange range_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SHARD_WORKER_H_
