// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// LRU cache of finished valuation results, keyed by the *contents* of the
// request: (train fingerprint, test fingerprint, method, hyperparameter
// fingerprint). Production valuation traffic is highly repetitive — the
// same corpus is re-valued whenever a marketplace report, a pricing run and
// a mislabel sweep all ask for the same values — and a hit returns the
// stored vector without touching the corpus. Hit/miss/eviction counters
// are surfaced through ValuationReport.

#ifndef KNNSHAP_ENGINE_RESULT_CACHE_H_
#define KNNSHAP_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "market/valuation_report.h"
#include "util/status.h"

namespace knnshap {

/// Outcome of ResultCache::LoadFrom. `salvaged` is true when the file was
/// truncated or corrupt past its header and only the valid prefix was
/// merged; `warning` then says where parsing stopped. A clean load has
/// `salvaged == false` and an empty warning.
struct CacheLoadResult {
  size_t entries = 0;
  bool salvaged = false;
  std::string warning;
};

/// Content-derived identity of a valuation request.
struct ResultCacheKey {
  uint64_t train_fingerprint = 0;
  uint64_t test_fingerprint = 0;
  std::string method;
  uint64_t params_fingerprint = 0;

  bool operator==(const ResultCacheKey& other) const = default;
};

/// Thread-safe LRU cache of value vectors.
class ResultCache {
 public:
  /// `capacity` = maximum resident entries; 0 disables caching entirely
  /// (every Get misses, every Put is dropped).
  explicit ResultCache(size_t capacity = 64);

  /// Returns the cached values and refreshes recency, or nullptr on miss.
  /// The vector is shared, not copied; callers must not mutate it.
  std::shared_ptr<const std::vector<double>> Get(const ResultCacheKey& key);

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// entry when over capacity.
  void Put(const ResultCacheKey& key, std::shared_ptr<const std::vector<double>> values);

  /// Drops all entries (counters are retained).
  void Clear();

  /// Drops every entry whose train *or* test fingerprint equals
  /// `fingerprint` (a dropped or mutated corpus may appear on either side
  /// of a request). Returns the number of entries erased; they do not
  /// count as evictions.
  size_t EraseFingerprint(uint64_t fingerprint);

  /// Serializes the resident entries (MRU first) to a versioned binary
  /// file so a restarted server warm-starts. Native endianness — the file
  /// is a same-machine restart artifact, not an interchange format.
  ///
  /// The write is ATOMIC: bytes go to `path + ".tmp"`, are fsync'd, and
  /// replace `path` with a rename only once durable. A failed or
  /// interrupted save therefore leaves any previous snapshot at `path`
  /// readable and untouched. Each entry carries an FNV-64 checksum so a
  /// torn or bit-flipped file is detected at load. Returns the number of
  /// entries written.
  StatusOr<size_t> SaveTo(const std::string& path) const;

  /// Merges entries from a SaveTo file into the cache (least recent
  /// first, so relative recency survives the round trip; capacity and
  /// eviction apply as usual). A missing file is not_found; a file whose
  /// HEADER is corrupt (bad magic, unsupported version, missing count) is
  /// data_loss with nothing loaded. A file corrupt PAST the header —
  /// truncated mid-entry, bad checksum, absurd length field — is
  /// salvaged: every entry before the damage is merged and the result
  /// reports `salvaged = true` plus a warning, so a crash-torn snapshot
  /// still warm-starts the valid prefix.
  StatusOr<CacheLoadResult> LoadFrom(const std::string& path);

  size_t Size() const;
  size_t Capacity() const { return capacity_; }

  /// Resident value-vector payload in bytes (entries × train_size × 8;
  /// key/bookkeeping overhead excluded). Maintained incrementally — this
  /// is what `stats` reports so operators can size --cache for a corpus.
  size_t BytesUsed() const;

  /// Lifetime hit/miss/eviction counts.
  CacheCounters Counters() const;

  struct KeyHash {
    size_t operator()(const ResultCacheKey& key) const;
  };

 private:
  // MRU-first list; the map indexes into it.
  using LruList =
      std::list<std::pair<ResultCacheKey, std::shared_ptr<const std::vector<double>>>>;

  size_t capacity_;
  mutable std::mutex mutex_;
  LruList entries_;
  std::unordered_map<ResultCacheKey, LruList::iterator, KeyHash> index_;
  CacheCounters counters_;
  size_t bytes_ = 0;  // payload bytes of resident entries
};

}  // namespace knnshap

#endif  // KNNSHAP_ENGINE_RESULT_CACHE_H_
