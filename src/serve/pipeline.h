// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// RequestPipeline — the concurrent JSONL serving loop over the
// ValuationEngine and the CorpusStore.
//
// The loop keeps a strict division of labor:
//
//   * The main thread reads stdin, parses and validates every request, and
//     executes all corpus / cache / introspection ops inline, in arrival
//     order. Mutations are therefore totally ordered, and every `value`
//     request snapshots its corpora (data + fingerprint) at parse time —
//     it values exactly the corpus version that was current when it
//     arrived, no matter what mutations land while it computes.
//
//   * Independent `value` requests are dispatched onto the thread pool and
//     run concurrently against the (thread-safe) ValuationEngine. Each job
//     runs the engine, whose ParallelForHelping loop spreads the request's
//     queries over whichever pool workers are idle (the job's own worker
//     always works them, so a busy pool runs them one after another),
//     computes the response line, and hands it to the in-order emitter.
//
//   * Responses are emitted in request order (the JSONL protocol stays a
//     deterministic transcript: pipelined ordered-mode output is
//     byte-identical to the serial loop). A request carrying
//     {"ordered":false} opts out: its response is written the moment it
//     completes, tagged with its echoed "id" for correlation.
//
// See src/serve/README.md for the full ordering/concurrency contract and
// README.md for the request/response protocol.

#ifndef KNNSHAP_SERVE_PIPELINE_H_
#define KNNSHAP_SERVE_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "serve/corpus_store.h"
#include "shard/shard_service.h"
#include "shard/topology.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace knnshap {

/// Pipeline construction options. The inherited ShardTopology fields
/// (`shards`, `shard_worker_command`, `shard_remote`, `shard_transport`)
/// place the shard workers: with shards > 1 the ranked value methods
/// (exact / exact-corrected / truncated / weighted-fast / weighted /
/// regression) rank through the shard subsystem
/// (EngineOptions::shard_topology), responses stay byte-identical to the
/// unsharded server (see src/shard/README.md), and the `stats` op grows a
/// "topology" section.
struct PipelineOptions : ShardTopology {
  /// Pool the value jobs run on; nullptr = ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Max value jobs submitted but not yet finished; the reader blocks when
  /// the window is full (backpressure). 0 = 2 * pool threads.
  size_t max_in_flight = 0;
  /// false = run every request inline on the reader thread (the pre-serve
  /// loop; the bench's serial baseline and a debugging aid).
  bool pipelined = true;
  /// false = omit the "seconds" field from value responses so transcripts
  /// are byte-for-byte reproducible (golden tests, the bench's
  /// ordered-identity check).
  bool emit_timing = true;
  /// Wire a MetricsRegistry through the engine and the serve loop:
  /// per-method request counts + latency histograms, per-phase time
  /// totals, queue-wait histogram and in-flight gauge, surfaced by the
  /// `stats`/`metrics` ops. false removes every metrics clock read — the
  /// bench's obs-off baseline arm.
  bool observability = true;
  /// Record deep per-query trace spans on every value request, as if each
  /// carried {"trace":true} (knnshap_serve --trace-all).
  bool trace_all = false;
  /// > 0: every ok value request slower than this (engine + queue wait,
  /// milliseconds) emits one JSONL line with its full phase breakdown to
  /// `slow_log`. Forces deep tracing on every value request.
  double slow_ms = 0.0;
  /// Slow-request log sink; nullptr = std::cerr (responses own stdout).
  std::ostream* slow_log = nullptr;
  /// Admission control. -1 (default) keeps the legacy blocking
  /// backpressure: the reader stalls when max_in_flight jobs are out.
  /// >= 0 replaces blocking with load shedding — a value request arriving
  /// while this many are already in flight is answered
  /// {"ok":false,"code":"unavailable","retry_after_ms":...} immediately
  /// on the reader thread, so overload degrades visibly instead of
  /// silently freezing the input stream. 0 sheds every value request
  /// (deterministic; the serial-vs-pipelined byte-identity test uses it).
  int max_queue = -1;
  /// Server-wide deadline (ms) applied to every value request that does
  /// not carry its own "deadline_ms". 0 = none.
  int64_t default_deadline_ms = 0;
  /// Crash-safe periodic snapshots: after every `snapshot_every` value
  /// requests, persist the result cache to `snapshot_path` (atomic
  /// tmp+fsync+rename; a failure bumps a counter, never kills serving).
  /// The path is also flushed once when Run exits (EOF / quit / graceful
  /// shutdown). Empty path or 0 disables.
  std::string snapshot_path;
  size_t snapshot_every = 0;
  /// Reject request lines longer than this many bytes with a structured
  /// invalid_argument before JSON-parsing them (a malformed client cannot
  /// make the reader allocate unboundedly). 0 = unlimited.
  size_t max_line_bytes = 0;
  /// Graceful shutdown (SIGINT/SIGTERM): when non-null and the pointee
  /// becomes true, Run stops reading further requests, drains in-flight
  /// work, flushes the snapshot and returns. knnshap_serve points this at
  /// its signal-handler flag.
  const std::atomic<bool>* shutdown = nullptr;
  EngineOptions engine;
};

/// The serving state: corpus store + engine + the pipelined request loop.
class RequestPipeline {
 public:
  explicit RequestPipeline(const PipelineOptions& options = {});

  RequestPipeline(const RequestPipeline&) = delete;
  RequestPipeline& operator=(const RequestPipeline&) = delete;

  /// Runs the JSONL loop until EOF or {"op":"quit"}; all in-flight work is
  /// drained before returning. Returns the number of requests answered.
  size_t Run(std::istream& in, std::ostream& out);

  /// Handles one parsed request synchronously on the calling thread
  /// (value requests included). Tests and embedding tools use this; Run is
  /// the concurrent path.
  JsonValue HandleSync(const JsonValue& request);

  ValuationEngine& Engine() { return engine_; }
  CorpusStore& Store() { return store_; }

  /// The wired registry (null when observability is off). knnshap_serve
  /// uses this for --metrics-file.
  MetricsRegistry* Metrics() { return metrics_.get(); }

  /// Value requests shed by admission control since construction.
  uint64_t ShedCount() const { return shed_total_.load(std::memory_order_relaxed); }
  /// Periodic/final snapshot attempts that failed since construction.
  uint64_t SnapshotFailures() const {
    return snapshot_failures_.load(std::memory_order_relaxed);
  }

 private:
  struct PreparedValue;  // parsed+validated value request (pipeline.cpp)
  struct LineRows;       // a line's `rows` decoded off the tree (pipeline.cpp)

  /// Load and append take the request's `rows` from `rows` when Run
  /// decoded them off the tree (null: from the tree).
  JsonValue Load(const JsonValue& request, LineRows* rows = nullptr);
  JsonValue AppendRows(const JsonValue& request, LineRows* rows = nullptr);
  /// How a load or append stores each row's last cell, for Run's
  /// ParseJsonWithRows; false for every other request.
  bool InlineRowsTarget(const JsonValue& request, CsvTarget* target) const;
  /// The request's inline `rows` for `target`, from `decoded` when Run
  /// decoded them for that target, else through FromInlineRows.
  static bool InlineRows(const JsonValue& request, CsvTarget target,
                         LineRows* decoded, Dataset* data, std::string* error);
  JsonValue RemoveRow(const JsonValue& request);
  JsonValue Drop(const JsonValue& request);
  JsonValue Methods() const;
  JsonValue Describe(const JsonValue& request) const;
  JsonValue Stats() const;
  JsonValue MetricsText() const;
  JsonValue SaveCache(const JsonValue& request);
  JsonValue LoadCache(const JsonValue& request);

  /// One row of the op table (pipeline.cpp): every op this server
  /// answers, sorted by name. HandleSync dispatches through it, Run drains
  /// in-flight values before its barrier ops, and `protocol` lists it.
  struct Op;
  static std::span<const Op> Ops();
  /// The table row named `name`; null for an unknown op.
  static const Op* FindOp(std::string_view name);

  /// Per-method/latency/phase subsections of `stats` (time-valued parts
  /// omitted when emit_timing is off, keeping golden transcripts stable).
  JsonValue StatsMetricsJson() const;
  void MaybeLogSlow(const PreparedValue& prepared, const ValuationReport& report);

  /// Parses/validates a value request against current store state. On
  /// error returns false with *error_response filled.
  bool PrepareValue(const JsonValue& request, PreparedValue* prepared,
                    JsonValue* error_response);
  JsonValue RunValue(const PreparedValue& prepared);

  /// Invalidate engine state keyed by a corpus's pre-mutation contents.
  void InvalidateOld(uint64_t old_fingerprint);

  /// One crash-safe snapshot to options_.snapshot_path (no-op when the
  /// path is empty). Failures bump snapshot_failures_, never throw.
  void SnapshotNow();

  /// Shed bookkeeping + the unavailable response for one value request.
  JsonValue ShedResponse(const JsonValue& request);

  PipelineOptions options_;
  /// Built once from the shard options; null when unsharded.
  std::shared_ptr<const ShardTopology> topology_;
  ThreadPool* pool_;
  size_t max_in_flight_;
  /// Null when observability is off. Declared before engine_: the engine's
  /// options embed the registry pointer, so it must exist first.
  std::unique_ptr<MetricsRegistry> metrics_;
  CorpusStore store_;
  /// The shard-worker ops (`candidates`, `digests`, `load_delta`), answered
  /// inline on the reader thread: a worker process serves them between
  /// its router's barrier ops, so they never queue behind the pool.
  ShardService shard_{&store_};
  ValuationEngine engine_;

  // Serve-layer instrument handles (null when observability is off). The
  // engine credits its own phases; these cover what it cannot see.
  Counter* parse_nanos_ = nullptr;
  Counter* serialize_nanos_ = nullptr;
  Counter* queue_nanos_ = nullptr;
  Histogram* queue_seconds_ = nullptr;
  Gauge* in_flight_ = nullptr;
  Counter* shed_metric_ = nullptr;
  Counter* snapshot_failures_metric_ = nullptr;
  std::mutex slow_log_mutex_;

  // Robustness counters (surfaced by the stats `server` section and
  // FormatStatusLine). Values-since-last-snapshot is reader-thread-only.
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> snapshots_taken_{0};
  std::atomic<uint64_t> snapshot_failures_{0};
  size_t values_since_snapshot_ = 0;
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace knnshap

#endif  // KNNSHAP_SERVE_PIPELINE_H_
