// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardTopology — how a sharded server places its shard workers, and the
// one definition of those knobs: PipelineOptions (serve/pipeline.h)
// derives from it. Fixed per process: the pipeline copies it into
// EngineOptions, and the engine hands it, inside a ShardContext, to every
// fit of a ranked method, whose ShardRanking (shard/shard_ranking.h)
// builds that fit's workers from it. Every shard gets one ShardWorker
// (shard/shard_worker.h), an ordered replica list; the fields only choose
// how its replicas are opened:
//
//   shard_remote non-empty          each shard's group is its list of
//                                   `knnshap_serve --shard-listen`
//                                   endpoints, dialed over TCP
//   shard_worker_command non-empty  each shard's group is one child
//                                   spawned from the command, over a
//                                   socketpair on its stdin/stdout
//
// A sharded topology with neither fails its fits: unsharded serving is
// the in-process path. Both kinds of replica share one transport
// (socket_worker.h), and each answers through its ShardService
// (shard_service.h).

#ifndef KNNSHAP_SHARD_TOPOLOGY_H_
#define KNNSHAP_SHARD_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "util/fingerprint.h"

namespace knnshap {

class MetricsRegistry;

/// Socket transport knobs (spawned and remote workers).
struct SocketWorkerOptions {
  int connect_timeout_ms = 2000;  ///< Per dial attempt (remote only).
  int io_timeout_ms = 30000;      ///< SO_RCVTIMEO/SO_SNDTIMEO; 0 = none.
  int connect_attempts = 3;       ///< Bounded dial retries (remote only).
};

struct ShardTopology {
  /// Planned shard count (clamped to the corpus's fingerprint-block
  /// count); 1 = unsharded (knnshap_serve --shards).
  int shards = 1;
  /// argv of a worker binary that speaks the JSONL serve protocol on
  /// stdin/stdout. Non-empty spawns one child per shard
  /// (--shard-workers=self|PATH).
  std::vector<std::string> shard_worker_command;
  /// One ordered replica endpoint list ("host:port") per shard
  /// (--shard-remote). There must be at least as many groups as planned
  /// shards (the planner may clamp the count below the flag on tiny
  /// corpora; trailing groups then go unused). Mutually exclusive with
  /// shard_worker_command.
  std::vector<std::vector<std::string>> shard_remote;
  /// Socket transport knobs for spawned and remote workers.
  SocketWorkerOptions shard_transport;
};

/// What a fit needs to rank its corpus through the shards: the process's
/// topology plus the corpus's identity on the workers.
struct ShardContext {
  std::shared_ptr<const ShardTopology> topology;
  /// The corpus's maintained block digests, which content-address its
  /// shards (null: the fit hashes the corpus itself).
  std::shared_ptr<const CorpusDigests> digests;
  /// Store name socket workers hold the corpus under.
  std::string corpus_name;
  /// Receives the transport counters (nullable).
  MetricsRegistry* metrics = nullptr;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_TOPOLOGY_H_
