// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardConnection — one JSONL connection to one shard worker process,
// the transport under every ShardWorker (shard_worker.h). A ShardPeer
// names a replica one of two ways, and the connection gets its connected
// fd the matching way: Dial() connects to a remote `knnshap_serve
// --shard-listen` worker with a bounded reconnect-with-backoff loop and a
// connect timeout; Spawn() forks a worker command onto one end of a
// socketpair (the child's stdin and stdout) and owns the child, reaping it
// on destruction — a child whose router goes away sees EOF and exits.
// Either way, Sync() then checks the worker speaks this build's protocol
// version and runs the router's distance kernel, chosen the same way
// (`protocol` op; any other version or (kernel, kernel_auto) pair is a
// failed_precondition naming both) and brings the worker's window — the
// shard's rows of the corpus, and nothing else — up to date: it asks
// which rows the worker holds and their per-block content digests
// (`digests` op) and ships, in one packed `load_delta`, nothing (the
// worker holds the window), the window's blocks it lacks, or every block
// of the window (unknown/incompatible worker state — always the case for
// a fresh child). Every sync path ends with the worker echoing its
// independently recomputed window fingerprint, which must equal the
// router's — transport corruption and stale-worker states are caught
// before any candidates flow. Candidates are one JSONL
// line exchange (shard/wire.h), split into SendCandidates() and
// ReadCandidates() so the router can have a request in flight on every
// shard at once, under the socket's SO_RCVTIMEO/SO_SNDTIMEO — a worker
// that stops answering surfaces as a read timeout, not a hang.
//
// A ShardConnection is one connection's lifetime: any transport or
// protocol failure latches Health() non-OK and the object is discarded.
// Its ShardWorker moves on to the next replica with a *fresh* connection,
// which re-syncs (cheaply, via the delta path); a worker with no replica
// left is dead, and the next request's re-fit dials or spawns anew.
//
// Fault sites (util/fault.h): `shard_connect` fails a dial attempt,
// `shard_read` turns a response read into a transport error. See
// src/serve/README.md, "Failure semantics".

#ifndef KNNSHAP_SHARD_SOCKET_WORKER_H_
#define KNNSHAP_SHARD_SOCKET_WORKER_H_

#include <sys/types.h>

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dataset/dataset.h"
#include "knn/metric.h"
#include "obs/metrics.h"
#include "shard/shard_planner.h"
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
  Counter* failovers = nullptr;         ///< Switches to a next replica.
  Counter* full_loads = nullptr;        ///< Corpus syncs that shipped everything.
  Counter* delta_loads = nullptr;       ///< Corpus syncs that shipped a delta.
  Counter* delta_blocks = nullptr;      ///< Blocks shipped across all deltas.
  Counter* bytes_sent = nullptr;        ///< Line bytes written, '\n' included.
  Counter* bytes_received = nullptr;    ///< Line bytes read, '\n' included.

  /// The knnshap_shard_* counters of `metrics` (all null when it is null).
  static ShardTransportCounters From(MetricsRegistry* metrics);
};

/// The argv that spawns the serve binary `binary` as a shard worker:
/// serial, untimed and unobserved so it answers deterministically, and on
/// the caller's kernel so its candidate distances are bit-identical to
/// the router's own: pinned with --kernel= when the caller's is pinned,
/// auto-detected like the caller's otherwise.
std::vector<std::string> ShardWorkerCommand(std::string binary);

/// One replica of a shard: a remote worker to dial, or the argv of a
/// worker command to spawn.
using ShardPeer = std::variant<Endpoint, std::vector<std::string>>;

/// One JSONL connection to one shard worker process. Not synchronized:
/// one thread drives it at a time.
class ShardConnection {
 public:
  /// The worker is synced to, and queried for, `range`: its window.
  ShardConnection(ShardRange range, std::string corpus_name, Metric metric,
                  SocketWorkerOptions options,
                  ShardTransportCounters counters);
  /// Closes the connection, then reaps a spawned child.
  ~ShardConnection();

  ShardConnection(const ShardConnection&) = delete;
  ShardConnection& operator=(const ShardConnection&) = delete;

  /// Dials an Endpoint peer, spawns a command peer.
  Status Open(const ShardPeer& peer);
  /// Connects to a remote worker (bounded attempts + backoff).
  Status Dial(const Endpoint& endpoint);
  /// Forks `command` (argv) with its stdin and stdout on one end of a
  /// socketpair; this object owns the other end and the child.
  Status Spawn(const std::vector<std::string>& command);

  /// Checks the worker's protocol version and distance kernel, then
  /// brings its window of `corpus` (described by `digests`) up to date
  /// (digests -> none/delta/full, fingerprint-verified). Must follow a
  /// successful Open and succeed before SendCandidates; a non-OK return
  /// leaves the connection dead (discard it).
  Status Sync(const Dataset& corpus, const CorpusDigests& digests);

  /// Writes the candidates request. False when the write failed (Health()
  /// says why); the read that follows then fails too.
  bool SendCandidates(std::span<const float> query, size_t r);
  /// Reads the reply to the last SendCandidates (wire.h): when r covers
  /// the shard, its whole distance column into the global row-indexed
  /// `dists` at [row_begin, row_end) and *run empty; below that, its exact
  /// top-r candidate row indices into *run and their distances into
  /// `dists`. False with Health() still OK is a propagated deadline; any
  /// other false latches Health() first.
  bool ReadCandidates(size_t r, std::span<double> dists,
                      std::vector<int>* run);

  /// OK until the first transport or protocol failure, then that failure.
  const Status& Health() const { return health_; }

 private:
  /// Adopts a connected fd as the line-framed stream pair.
  Status Adopt(int fd);
  bool WriteLine(const std::string& line);
  /// Reads one reply line, without its line end, into *response: a view
  /// of this connection's read buffer, valid until the next read.
  bool ReadLine(std::string_view* response);
  bool Exchange(const std::string& line, std::string_view* response) {
    return WriteLine(line) && ReadLine(response);
  }
  /// Latches `status`, closes the connection and returns `status`.
  Status Fail(Status status);
  void CloseStreams();

  ShardRange range_;
  std::string peer_;  ///< "host:port" or "pid N", for messages.
  std::string corpus_name_;
  Metric metric_;
  SocketWorkerOptions options_;
  ShardTransportCounters counters_;

  pid_t child_pid_ = -1;  ///< Spawned child, or -1 for a dialed worker.
  std::FILE* write_stream_ = nullptr;
  std::FILE* read_stream_ = nullptr;
  /// getline's buffer, kept across replies: a reply is read with no
  /// allocation once it has grown to the largest reply size.
  char* read_buffer_ = nullptr;
  size_t read_capacity_ = 0;
  Status health_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SOCKET_WORKER_H_
