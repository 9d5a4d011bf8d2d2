// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardService — the worker side of the shard protocol (docs/PROTOCOL.md)
// over a worker's CorpusStore: `candidates` (the distance column of a
// block-aligned row range, or its exact top-r run when r is below the
// range's rows), `digests` (which rows the worker holds, with their
// per-block content digests, which the router diffs to plan its sync) and
// `load_delta` (install the window of the router's corpus this worker's
// shard covers, from the blocks sent plus the held blocks kept, then check
// the router's window fingerprint).
//
// A worker holds a window: corpus rows [row_begin, row_end) of the
// router's corpus, and nothing else of it. Requests keep global
// addressing (corpus rows, corpus block indices), so a whole corpus a
// client loaded is simply the window [0, N) and answers `candidates` the
// same way. Client ops refuse a window (CorpusSnapshot::window).
// Request decoding, the norms cache and the candidates kernel live here,
// beside the wire encoding (wire.h). RequestPipeline dispatches the ops
// from its op table and invalidates the engine state keyed by the
// fingerprints a load_delta retires. Thread-safe: a --shard-listen
// worker serves several connections over one service.
//
// Fault sites (util/fault.h): `shard_candidates` exits the process
// mid-request; `delta_apply` fails a load_delta that keeps held blocks
// with an internal error.

#ifndef KNNSHAP_SHARD_SHARD_SERVICE_H_
#define KNNSHAP_SHARD_SHARD_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "knn/distance_kernel.h"
#include "knn/metric.h"
#include "serve/corpus_store.h"
#include "util/json.h"
#include "util/matrix.h"

namespace knnshap {

/// The candidates kernel: distances from `query` to corpus rows
/// [row_begin, row_end) into `dists` (one slot per row of the range,
/// bit-identical to the matching slice of a whole-corpus ComputeDistances
/// pass). `features` (and `norms`) hold corpus rows from `first_row` on:
/// a worker's window, or the whole corpus. When r is below the range's
/// rows, also the range's exact top-r in (distance, index) order, as
/// corpus row indices, into *run; an r that covers the range leaves *run
/// empty and sorts nothing, since the distance column is then the whole
/// answer. Local selection equals the restriction of the global order:
/// the index tie break is monotone under the constant row offset. Returns
/// false, with *run cleared, when the active CancelToken expired during
/// the distance pass.
bool ShardCandidates(const Matrix& features, std::span<const float> query,
                     Metric metric, const CorpusNorms* norms, size_t row_begin,
                     size_t row_end, size_t r, std::span<double> dists,
                     std::vector<int>* run, size_t first_row = 0);

/// Sets the identity fields of a corpus reply — name, rows (held), dim,
/// version and fingerprint (of the held rows), plus `row_begin` for a
/// window — as `load`, `append`, `remove`, `load_delta`, `digests` and
/// `stats` answer them.
void SetSnapshotFields(JsonValue* out, const std::string& name,
                       const CorpusSnapshot& snapshot);

class ShardService {
 public:
  /// `store` must outlive the service.
  explicit ShardService(CorpusStore* store) : store_(store) {}

  JsonValue Candidates(const JsonValue& request);
  JsonValue Digests(const JsonValue& request) const;
  /// Appends to *retired the fingerprint of every corpus version this
  /// request replaced or dropped; the caller invalidates what it keyed by
  /// them.
  JsonValue LoadDelta(const JsonValue& request, std::vector<uint64_t>* retired);

 private:
  CorpusStore* store_;

  /// Single-entry norms cache for candidates, keyed by corpus identity: a
  /// worker answers a stream of candidates against one corpus version, so
  /// one slot removes the per-query norms recompute (which only cosine
  /// actually populates). Shared, so a request that copied the norms out
  /// keeps them while another connection refills the slot for a different
  /// corpus or metric.
  struct NormsCacheEntry {
    std::string name;
    uint64_t version = 0;
    Metric metric = Metric::kL2;
    std::shared_ptr<const CorpusNorms> norms;
  };
  std::mutex norms_cache_mutex_;
  NormsCacheEntry norms_cache_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SHARD_SERVICE_H_
