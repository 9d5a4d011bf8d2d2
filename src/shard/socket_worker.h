// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// The socket shard transport: one JSONL connection per shard worker, and
// the per-shard replica layer.
//
//   * SocketShardWorker — ONE connection to one worker process. It gets
//     its connected fd one of two ways: Dial() connects to a remote
//     `knnshap_serve --shard-listen` worker with a bounded
//     reconnect-with-backoff loop and a connect timeout; Spawn() forks a
//     worker command onto one end of a socketpair (the child's stdin and
//     stdout) and owns the child, reaping it on destruction — a child
//     whose router goes away sees EOF and exits. Either way, Sync() then
//     checks the worker speaks this build's protocol version (`protocol`
//     op; any other version is a failed_precondition naming both) and
//     brings the worker's corpus up to date: it asks for the worker's
//     per-block content digests (`digests` op) and ships either nothing
//     (fingerprints match), a packed `load_delta` with exactly the
//     changed blocks, or a full packed `load` (unknown/incompatible
//     worker state — always the case for a fresh child). Every sync path
//     ends with the worker echoing its independently recomputed corpus
//     fingerprint, which must equal the router's — transport corruption
//     and stale-worker states are caught before any candidates flow.
//     Candidates are one JSONL line exchange (shard/wire.h), split into
//     SendCandidates() and ReadCandidates() so the router can have a
//     request in flight on every shard at once, under the socket's
//     SO_RCVTIMEO/SO_SNDTIMEO — a worker that stops answering surfaces
//     as a read timeout, not a hang.
//
//     A SocketShardWorker is one connection's lifetime: any transport or
//     protocol failure latches Health() non-OK and the object is
//     discarded (the replica layer reconnects with a *fresh* one, which
//     re-syncs — cheaply, via the delta path; a spawned topology is
//     re-fitted, respawning its children).
//
//   * ReplicaShardWorker — an ordered list of remote replicas for one
//     shard. It lazily connects the first live replica and fails over
//     *within a single query*: a replica that dies between SendCandidates
//     and ReadCandidates is marked dead (health latching), the next
//     replica is connected + synced, and the same query is retried there
//     synchronously — the router's fan-out
//     sees a usable run and the response stays byte-identical (the
//     candidate run is a pure function of the corpus, which every replica
//     verified by fingerprint). Only when EVERY replica is dead does
//     Health() latch non-OK, and the router's existing never-merge-a-
//     partial-fan-out invariant answers `unavailable` + retry_after_ms;
//     the next request re-fits and re-dials every replica from scratch.
//
//     A propagated deadline (worker answered deadline_exceeded off the
//     forwarded budget) does NOT fail over: the router's own token is
//     the authority, and retrying on a sibling would just burn the rest
//     of the budget.
//
// Fault sites (util/fault.h): `shard_connect` fails a dial attempt,
// `shard_read` turns a response read into a transport error (mid-query
// failover), `shard_failover` abandons a failover (all-replicas-dead
// path). See src/serve/README.md, "Failure semantics".

#ifndef KNNSHAP_SHARD_SOCKET_WORKER_H_
#define KNNSHAP_SHARD_SOCKET_WORKER_H_

#include <sys/types.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "knn/metric.h"
#include "obs/metrics.h"
#include "shard/shard_worker.h"
#include "shard/topology.h"
#include "util/fingerprint.h"
#include "util/net.h"
#include "util/status.h"

namespace knnshap {

/// Transport counters (obs registry; all nullable — obs-off servers pass
/// nulls and pay nothing).
struct ShardTransportCounters {
  Counter* connects = nullptr;          ///< Successful dials/spawns + syncs.
  Counter* connect_failures = nullptr;  ///< Failed dial attempts.
  Counter* failovers = nullptr;         ///< Mid-query replica switches.
  Counter* full_loads = nullptr;        ///< Corpus syncs that shipped everything.
  Counter* delta_loads = nullptr;       ///< Corpus syncs that shipped a delta.
  Counter* delta_blocks = nullptr;      ///< Blocks shipped across all deltas.

  /// The knnshap_shard_* counters of `metrics` (all null when it is null).
  static ShardTransportCounters From(MetricsRegistry* metrics);
};

/// The argv that spawns the serve binary `binary` as a shard worker:
/// serial, untimed and unobserved so it answers deterministically, and on
/// the caller's active kernel so its candidate distances are
/// bit-identical to the router's own.
std::vector<std::string> ShardWorkerCommand(std::string binary);

/// One JSONL connection to one shard worker process.
class SocketShardWorker : public ShardWorker {
 public:
  SocketShardWorker(ShardRange range, std::string corpus_name, Metric metric,
                    uint64_t expected_fingerprint, SocketWorkerOptions options,
                    ShardTransportCounters counters);
  /// Closes the connection, then reaps a spawned child.
  ~SocketShardWorker() override;

  /// Connects to a remote worker (bounded attempts + backoff).
  Status Dial(const Endpoint& endpoint);
  /// Forks `command` (argv) with its stdin and stdout on one end of a
  /// socketpair; this object owns the other end and the child.
  Status Spawn(const std::vector<std::string>& command);

  /// Checks the worker's protocol version, then brings its corpus up to
  /// date (digests -> none/delta/full, fingerprint-verified). Must follow
  /// a successful Dial or Spawn and succeed before SendCandidates; a non-OK
  /// return leaves the worker dead (discard it).
  Status Sync(const Dataset& corpus, const CorpusDigests& digests);

  bool SendCandidates(std::span<const float> query, size_t r) override;
  bool ReadCandidates(std::span<const float> query, size_t r,
                      std::span<double> dists,
                      std::vector<int>* run) override;

  Status Health() const override;

 private:
  /// Adopts a connected fd as the line-framed stream pair.
  Status Open(int fd);
  bool WriteLine(const std::string& line);
  bool ReadLine(std::string* response);
  bool Exchange(const std::string& line, std::string* response) {
    return WriteLine(line) && ReadLine(response);
  }
  /// Latches `status`, closes the connection and returns `status`.
  Status Fail(Status status);
  void CloseStreams();

  std::string peer_;  ///< "host:port" or "worker pid N", for messages.
  std::string corpus_name_;
  Metric metric_;
  uint64_t expected_fingerprint_;
  SocketWorkerOptions options_;
  ShardTransportCounters counters_;

  pid_t child_pid_ = -1;  ///< Spawned child, or -1 for a dialed worker.
  std::FILE* write_stream_ = nullptr;
  std::FILE* read_stream_ = nullptr;

  mutable std::mutex health_mutex_;
  Status health_;
};

/// Ordered replica list for one shard, with health latching and
/// mid-query failover. The data plane (Send/ReadCandidates, Connect) is
/// NOT internally synchronized — the router serializes socket fan-outs;
/// Health() alone is thread-safe (the engine reads it concurrently).
class ReplicaShardWorker : public ShardWorker {
 public:
  /// `corpus` and `digests` must outlive the worker (the fitted valuator
  /// and its ShardRanking own them); replicas are tried strictly in order.
  ReplicaShardWorker(ShardRange range, std::vector<Endpoint> replicas,
                     std::string corpus_name, Metric metric,
                     uint64_t expected_fingerprint,
                     SocketWorkerOptions options,
                     ShardTransportCounters counters, const Dataset* corpus,
                     const CorpusDigests* digests);

  /// Best-effort eager connect of the first live replica (fit-time). A
  /// failure is not fatal — the next query retries the remaining
  /// replicas; only all-dead latches Health().
  void Connect();

  bool SendCandidates(std::span<const float> query, size_t r) override;
  bool ReadCandidates(std::span<const float> query, size_t r,
                      std::span<double> dists,
                      std::vector<int>* run) override;

  Status Health() const override;

 private:
  /// Ensures conn_ points at a connected, synced replica; advances past
  /// dead ones. False (with Health latched) when every replica is dead.
  bool EnsureActive();

  void LatchAllDead(const Status& last_error);

  std::vector<Endpoint> replicas_;
  std::string corpus_name_;
  Metric metric_;
  uint64_t expected_fingerprint_;
  SocketWorkerOptions options_;
  ShardTransportCounters counters_;
  const Dataset* corpus_;
  const CorpusDigests* digests_;

  size_t active_ = 0;  ///< Index of the replica conn_ speaks to.
  std::unique_ptr<SocketShardWorker> conn_;

  mutable std::mutex health_mutex_;
  Status health_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SOCKET_WORKER_H_
