// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardTopology — how a sharded server places its shard workers. Built
// once by the serve layer (serve/pipeline.h) from its flags and shared,
// immutable, by every request and every router it fits
// (shard/sharded_valuator.h). Three placements, selected by which field
// is set:
//
//   remote_replicas non-empty  TCP connections to standalone
//                              `knnshap_serve --shard-listen` workers,
//                              one ordered replica list per shard
//   worker_command non-empty   one spawned child per shard, connected
//                              over a socketpair on its stdin/stdout
//   neither                    in-process workers on the shared pool
//
// Spawned and remote workers share one transport (socket_worker.h): the
// same corpus sync, health latching, counters and timeouts.

#ifndef KNNSHAP_SHARD_TOPOLOGY_H_
#define KNNSHAP_SHARD_TOPOLOGY_H_

#include <string>
#include <vector>

namespace knnshap {

/// Socket transport knobs (spawned and remote workers).
struct SocketWorkerOptions {
  int connect_timeout_ms = 2000;  ///< Per dial attempt (remote only).
  int io_timeout_ms = 30000;      ///< SO_RCVTIMEO/SO_SNDTIMEO; 0 = none.
  int connect_attempts = 3;       ///< Bounded dial retries (remote only).
};

struct ShardTopology {
  /// Planned shard count (clamped to the corpus's fingerprint-block
  /// count); 1 = unsharded.
  int count = 1;
  /// argv of a worker binary that speaks the JSONL serve protocol on
  /// stdin/stdout. Non-empty spawns one child per shard.
  std::vector<std::string> worker_command;
  /// One ordered replica endpoint list ("host:port") per shard. There
  /// must be at least as many groups as planned shards (the planner may
  /// clamp the count below the flag on tiny corpora; trailing groups then
  /// go unused).
  std::vector<std::vector<std::string>> remote_replicas;
  SocketWorkerOptions transport;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_TOPOLOGY_H_
