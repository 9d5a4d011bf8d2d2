// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardWorker — one shard's candidate server, behind a topology-agnostic
// interface. A worker owns a planned ShardRange (shard_planner.h) and
// answers one kind of query: "distances + exact top-r candidate run over
// your rows". ShardRanking (shard_ranking.h) merges the runs into the
// ranking the recursions consume; because each worker's run is the exact
// restriction of the global (distance, index) order to its contiguous
// rows, the merge is bit-identical to the unsharded ranking.
//
// Implementations:
//
//   * LocalShardWorker (here) — borrows the ranking's corpus/norms and
//     computes on the calling thread (the ranking fans out across the
//     shared pool). Zero copies, always healthy; the default topology.
//
//   * SocketShardWorker / ReplicaShardWorker (socket_worker.h) — one
//     JSONL connection to a spawned child or a remote worker, which runs
//     ShardCandidates below behind its `candidates` op.
//
// Failure semantics of Candidates(): `false` means "this fan-out produced
// no usable run". A false WITH Health() still OK is a propagated deadline
// (the worker answered deadline_exceeded off the forwarded remaining-ms
// budget — the parent's own token is the authority and is re-checked by
// the valuator); any other false latches a non-OK Health first.

#ifndef KNNSHAP_SHARD_SHARD_WORKER_H_
#define KNNSHAP_SHARD_SHARD_WORKER_H_

#include <span>
#include <vector>

#include "dataset/dataset.h"
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

/// One shard's candidate server.
class ShardWorker {
 public:
  explicit ShardWorker(ShardRange range) : range_(range) {}
  virtual ~ShardWorker() = default;

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Computes distances from `query` to this shard's rows — written into
  /// the global row-indexed `dists` at [row_begin, row_end) — and appends
  /// the shard's exact top-min(r, Rows()) candidate row indices (global,
  /// ascending by (distance, index)) into *run (cleared first). Returns
  /// false when no usable run was produced (see header comment); an
  /// expired active CancelToken may leave *run empty with `true` — the
  /// router discards the whole query in that case.
  virtual bool Candidates(std::span<const float> query, size_t r,
                          std::span<double> dists, std::vector<int>* run) = 0;

  /// Liveness. Latched non-OK by socket workers on peer death/garbage;
  /// in-process workers are always OK.
  virtual Status Health() const { return Status::Ok(); }

  const ShardRange& Range() const { return range_; }

 protected:
  ShardRange range_;
};

/// Thread-per-shard worker: computes over a borrowed corpus slice on the
/// calling thread. `corpus` and `norms` must outlive the worker (the
/// fitted valuator and its ShardRanking own them).
class LocalShardWorker : public ShardWorker {
 public:
  LocalShardWorker(ShardRange range, const Dataset* corpus,
                   const CorpusNorms* norms, Metric metric)
      : ShardWorker(range), corpus_(corpus), norms_(norms), metric_(metric) {}

  bool Candidates(std::span<const float> query, size_t r,
                  std::span<double> dists, std::vector<int>* run) override;

 private:
  const Dataset* corpus_;
  const CorpusNorms* norms_;
  Metric metric_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SHARD_WORKER_H_
