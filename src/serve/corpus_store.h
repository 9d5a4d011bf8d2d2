// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// CorpusStore — the serving subsystem's owner of named, versioned corpora.
//
// Every mutation (put / append / remove) installs a *new* immutable Dataset
// behind a shared_ptr and bumps the version: readers holding a snapshot —
// in-flight valuation requests on pool workers — keep valuing the exact
// corpus they were parsed against, unaffected by later mutations
// (copy-on-write semantics; the copy is taken once per mutation, never per
// reader).
//
// Each entry also carries the corpus's block-digest fingerprint (see
// util/fingerprint.h), maintained *incrementally*: a one-row append
// rehashes only the trailing block, a removal at row r rehashes from r's
// block onward, and a snapshot hands the precomputed fingerprint to the
// ValuationEngine so the serve path never rehashes a corpus per request.
// The invariant `fingerprint == DatasetFingerprint(*data)` is what
// tests/fingerprint_test.cpp pins across randomized mutation sequences.
//
// A shard worker's store also holds windows (PutWindow): the rows of a
// router's corpus that the worker's shard covers, under the corpus's name.
// Append and RemoveRow refuse them, as the serve ops that read a corpus
// do.
//
// Thread-safe: all operations are mutex-guarded; snapshots are immutable.

#ifndef KNNSHAP_SERVE_CORPUS_STORE_H_
#define KNNSHAP_SERVE_CORPUS_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dataset/dataset.h"
#include "util/fingerprint.h"

namespace knnshap {

/// Immutable view of one corpus version.
struct CorpusSnapshot {
  std::shared_ptr<const Dataset> data;
  uint64_t fingerprint = 0;  ///< == DatasetFingerprint(*data).
  uint64_t version = 0;      ///< 1 on first put, bumped per mutation.
  /// Per-block digests of this version (never null from Get/mutations):
  /// the shard planner derives content-addressed shard fingerprints from
  /// them without rehashing the corpus.
  std::shared_ptr<const CorpusDigests> digests;
  /// A shard window: corpus rows [row_begin, row_begin + data->Size())
  /// of a router's corpus, the rows a shard worker's `load_delta`
  /// installed for its shard (shard/shard_service.h); the digests then
  /// describe only those rows. Client ops refuse a window: it is not the
  /// corpus its name stands for. A client's load, append or remove
  /// installs a whole corpus (window false, row_begin 0).
  bool window = false;
  size_t row_begin = 0;
};

/// Outcome of a mutating operation: the new snapshot plus the fingerprint
/// the corpus had before (0 for a fresh name) — the handle the caller
/// needs to invalidate engine state keyed by the old contents.
struct CorpusMutation {
  CorpusSnapshot snapshot;
  uint64_t old_fingerprint = 0;
};

/// Named, versioned, fingerprinted corpora.
class CorpusStore {
 public:
  /// Inserts or replaces `name` with `data` (full digest computation —
  /// this is the one place a complete hash of the corpus happens).
  CorpusMutation Put(const std::string& name, Dataset data);
  /// Inserts or replaces `name` with `rows`, a shard window: corpus rows
  /// from block-aligned row `row_begin` on.
  CorpusMutation PutWindow(const std::string& name, Dataset rows,
                           size_t row_begin);

  /// Snapshot of the current version; nullopt for an unknown name.
  std::optional<CorpusSnapshot> Get(const std::string& name) const;

  /// Appends `rows` (same dim / label / target schema) to `name`.
  /// Incremental digest update: only blocks from the old row count onward
  /// are rehashed. Returns false with *error on schema mismatch, an
  /// unknown name or a window.
  bool Append(const std::string& name, const Dataset& rows, CorpusMutation* out,
              std::string* error);

  /// Removes row `row` from `name`; digests are rehashed from `row`'s
  /// block onward. A window is refused as Append refuses it.
  bool RemoveRow(const std::string& name, size_t row, CorpusMutation* out,
                 std::string* error);

  /// Drops `name`; returns the dropped corpus's fingerprint via
  /// *old_fingerprint (for engine invalidation). False if unknown.
  bool Drop(const std::string& name, uint64_t* old_fingerprint);

  /// Every corpus's current snapshot, sorted by name.
  std::vector<std::pair<std::string, CorpusSnapshot>> List() const;

 private:
  /// Installs a whole corpus, or a window when `window_begin` is set.
  CorpusMutation InstallLocked(const std::string& name, Dataset next,
                               CorpusDigests digests,
                               std::optional<size_t> window_begin,
                               CorpusSnapshot* entry);
  /// The whole corpus `name` for a mutation, or null with *error set.
  CorpusSnapshot* MutableLocked(const std::string& name, std::string* error);

  mutable std::mutex mutex_;
  std::map<std::string, CorpusSnapshot> entries_;
};

}  // namespace knnshap

#endif  // KNNSHAP_SERVE_CORPUS_STORE_H_
