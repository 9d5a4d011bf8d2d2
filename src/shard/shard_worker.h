// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardWorker — one shard's candidate server. A worker owns a planned
// ShardRange (shard_planner.h) and answers one kind of query: "your rows'
// distances, and their exact top-r candidate run when r is below your
// rows". ShardRanking (shard_ranking.h) orders the replies into the
// ranking the recursions consume: at full rank one sort of the gathered
// distance columns, below it a merge of the runs. Each worker's run is
// the exact restriction of the global (distance, index) order to its
// contiguous rows, so either way the ranking is bit-identical to the
// unsharded one.
//
// Every shard has one worker type: an ordered list of replicas, each a
// ShardPeer — a remote worker to dial or a worker command to spawn — and
// a spawned shard is simply a group of one. The worker speaks to one
// replica at a time through a ShardConnection (socket_worker.h); the
// process on the other end answers through its ShardService
// (shard_service.h). A query splits into a send half and a read half, so
// the router can write every shard's request before it reads any reply
// (send-all-then-gather: the shards compute at once).
//
// Failover: a replica that dies between SendCandidates and
// ReadCandidates is dropped, the next replica is opened and synced, and
// the same query is retried there synchronously. The fan-out sees a
// usable run and the response stays byte-identical (the candidate run is
// a pure function of the corpus, which every replica verified by
// fingerprint). Only when EVERY replica is dead does Health() latch
// non-OK, naming the last connection's own failure; the router then
// answers `unavailable` + retry_after_ms, and the next request re-fits,
// dialing or respawning every replica from scratch. A propagated deadline
// (the replica answered deadline_exceeded off the forwarded budget) does
// NOT fail over: the router's own token is the authority, and a retry on
// a sibling would only burn the rest of the budget.
//
// Fault site (util/fault.h): `shard_failover` abandons a switch to the
// next replica, as if the whole group were dead.

#ifndef KNNSHAP_SHARD_SHARD_WORKER_H_
#define KNNSHAP_SHARD_SHARD_WORKER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "knn/metric.h"
#include "shard/shard_planner.h"
#include "shard/socket_worker.h"
#include "shard/topology.h"
#include "util/fingerprint.h"
#include "util/status.h"

namespace knnshap {

/// One shard's ordered replica list, with health latching and mid-query
/// failover. Not synchronized: the router serializes fan-outs and reads
/// Health() under the same lock.
class ShardWorker {
 public:
  /// `peers` are tried strictly in order. `corpus` and `digests` must
  /// outlive the worker (the fitted valuator and its ShardRanking own
  /// them): every replica (re)connect syncs `range`'s window from them.
  ShardWorker(ShardRange range, std::vector<ShardPeer> peers,
              std::string corpus_name, Metric metric,
              SocketWorkerOptions options, ShardTransportCounters counters,
              const Dataset* corpus, const CorpusDigests* digests);

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Opens and syncs the first replica, from the current one on, that
  /// answers. On failure every replica is dead: Health() is latched and
  /// the last replica's own failure is returned.
  Status Connect();

  /// Writes the candidates request to the active replica. False only when
  /// the whole group is dead, and the caller must not read.
  bool SendCandidates(std::span<const float> query, size_t r);

  /// Reads the reply to the last successful SendCandidates into the
  /// global row-indexed `dists` and *run, as ShardConnection does: the
  /// whole distance column and an empty run when r covers the shard, its
  /// exact top-r row indices (global, ascending by (distance, index))
  /// below that. A replica that died since the send is replaced and
  /// `query` retried.
  /// False when no usable run was produced: with Health() OK that is a
  /// propagated deadline, otherwise the whole group is dead.
  bool ReadCandidates(std::span<const float> query, size_t r,
                      std::span<double> dists, std::vector<int>* run);

  /// OK while any replica may still answer; latched on the first
  /// all-replicas-dead failure.
  const Status& Health() const { return health_; }

 private:
  void LatchAllDead(const Status& last_error);

  ShardRange range_;
  std::vector<ShardPeer> peers_;
  std::string corpus_name_;
  Metric metric_;
  SocketWorkerOptions options_;
  ShardTransportCounters counters_;
  const Dataset* corpus_;
  const CorpusDigests* digests_;

  size_t active_ = 0;  ///< Index of the peer conn_ speaks to.
  std::unique_ptr<ShardConnection> conn_;
  Status health_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SHARD_WORKER_H_
