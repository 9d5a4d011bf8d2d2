// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ValuationEngine — the one front door to every valuation method. A
// request names a method by registry key and carries the train/test
// datasets; the engine
//
//   * validates the request and answers errors as responses, never aborts;
//   * serves repeated requests from an LRU result cache keyed by content
//     fingerprints (same corpus + queries + method + hyperparameters =>
//     cache hit, bit-identical values, no recomputation);
//   * reuses fitted valuators — and therefore their ranking / LSH index —
//     across requests against the same corpus;
//   * spreads the test batch of a per-query method over ThreadPool::Shared()
//     with ParallelForHelping — from any thread, a pool worker included:
//     the caller works its own queries and idle workers join in — and
//     merges by additivity (Eq 8) in query order, so parallel and serial
//     runs are bitwise equal. Theorem 1's methods keep each query in rank
//     space (its order) and run the recursion as they fold it.
//
// The engine is thread-safe: concurrent Value calls are allowed (cache and
// fitted-valuator bookkeeping are mutex-guarded; fitted valuators are
// immutable after Fit and shared).

#ifndef KNNSHAP_ENGINE_ENGINE_H_
#define KNNSHAP_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/dataset.h"
#include "engine/registry.h"
#include "engine/result_cache.h"
#include "engine/valuator.h"
#include "market/valuation_report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/topology.h"
#include "util/cancel.h"
#include "util/fingerprint.h"

namespace knnshap {

/// One valuation request: value every row of `train` against the query
/// batch `test` with the given method. Datasets are shared_ptr so the
/// engine can keep fitted valuators alive across requests without copying.
struct ValuationRequest {
  std::string method = "exact";  ///< Registry key (see ValuatorRegistry).
  ValuatorParams params;
  std::shared_ptr<const Dataset> train;
  std::shared_ptr<const Dataset> test;
  bool use_cache = true;   ///< Consult/populate the result cache.
  /// Spread the queries over idle workers of the shared pool (false: one
  /// after another on the calling thread). Values are the same either way.
  bool parallel = true;
  /// Record deep per-query phase spans (distance / sort / retrieve /
  /// recursion) in addition to the engine-level phases. Off by default:
  /// deep spans cost a handful of clock reads per query. The report
  /// carries a trace whenever this is set OR the engine has a
  /// MetricsRegistry wired (engine-level phases only in that case).
  bool trace = false;
  /// Precomputed content fingerprints (0 = unset: the engine hashes the
  /// dataset itself). The serve layer's CorpusStore maintains fingerprints
  /// incrementally across mutations and passes them here, so a request
  /// against a million-row corpus costs no rehash at all. Callers setting
  /// these own the contract that the value equals DatasetFingerprint(data).
  uint64_t train_fingerprint = 0;
  uint64_t test_fingerprint = 0;
  /// Cooperative deadline/cancellation (null = uncancellable). The engine
  /// activates the token on every thread working the request, so the deep
  /// loops poll it at block granularity; once it expires the request
  /// answers a deadline_exceeded Status, partial work is discarded and
  /// nothing partial ever enters the result cache or the fitted registry.
  std::shared_ptr<const CancelToken> cancel;
  /// Recency stamp for the fitted-valuator LRU, from
  /// ValuationEngine::NextOrder (0 = stamp when the engine runs it). A
  /// concurrent server stamps requests in arrival order, so which fitted
  /// valuator is evicted does not depend on which request finished first.
  uint64_t order = 0;
  /// The train corpus's maintained block digests, which content-address
  /// its shards (null: a sharded fit hashes the corpus itself). Read only
  /// under EngineOptions::shard_topology.
  std::shared_ptr<const CorpusDigests> train_digests;
  /// Store name of the train corpus; socket shard workers hold it under
  /// this name.
  std::string train_name = "corpus";
};

/// Engine construction options.
struct EngineOptions {
  size_t result_cache_capacity = 64;  ///< Entries; 0 disables caching.
  size_t fitted_capacity = 8;         ///< Fitted valuators kept resident.
  /// Per-query results resident at once: memory is bounded by
  /// max_resident_queries * train_size values regardless of batch size.
  /// Accumulation stays in query order, so this never changes output bits.
  size_t max_resident_queries = 256;
  /// Registry to resolve methods against (default: the global one).
  ValuatorRegistry* registry = nullptr;
  /// Metrics sink (not owned; may outlive-engine scoped by the caller).
  /// When set, every request updates per-method request counters +
  /// latency histograms and per-phase time totals; when null the engine
  /// reads no clocks beyond the two it always paid (request wall time,
  /// fit split) — the disabled-by-default contract the warm-replay bench
  /// gates at <1%.
  MetricsRegistry* metrics = nullptr;
  /// Shard topology of this process (null or count <= 1 = unsharded).
  /// With count > 1 the ranked methods (exact, exact-corrected,
  /// truncated, weighted-fast, weighted, regression) fit a ShardRanking
  /// (shard/shard_ranking.h): per-shard candidate workers plus a
  /// bit-identical top-R merge; the other methods ignore it. It changes
  /// only HOW ranked methods compute, never what: values are
  /// bit-identical across topologies, so neither the result-cache key nor
  /// the fitted-valuator key carries it, and a cache written unsharded
  /// warm-starts a sharded server and vice versa.
  std::shared_ptr<const ShardTopology> shard_topology;
};

/// Serves batched valuation requests over any registered method.
class ValuationEngine {
 public:
  explicit ValuationEngine(const EngineOptions& options = {});

  /// Serves one request. Never aborts on malformed requests — the request
  /// is validated against the method's MethodSchema (declared params
  /// range-checked, task canonicalized, data requirements enforced) and
  /// failures come back as report.status with a machine-readable code and
  /// the offending field.
  ValuationReport Value(const ValuationRequest& request);

  /// A fresh fitted-set recency stamp (see ValuationRequest::order).
  uint64_t NextOrder() { return next_order_.fetch_add(1, std::memory_order_relaxed); }

  /// The result-cache key of `request`, derived without hashing any rows,
  /// whether or not the request uses the cache: nullopt unless it carries
  /// both fingerprints, or when its params fail validation (it then
  /// errors before any probe). The serve pipeline runs same-key requests
  /// in dispatch order by it.
  std::optional<ResultCacheKey> CacheKeyOf(const ValuationRequest& request) const;

  /// The registry this engine resolves methods against (the configured
  /// one, or the global default). The serve pipeline validates and
  /// describes through this accessor so its view can never diverge from
  /// what the engine will actually serve.
  const ValuatorRegistry& Registry() const { return *registry_; }

  /// Engine-wide result-cache counters.
  CacheCounters CacheStats() const { return cache_.Counters(); }

  /// Fitted valuators currently resident.
  size_t FittedCount() const;

  /// Resident fitted-valuator count per training-corpus fingerprint (the
  /// serve `stats` op joins this against the corpus store for per-corpus
  /// counts).
  std::unordered_map<uint64_t, size_t> FittedByTrain() const;

  /// Result-cache sizing facts for `stats` (entries, capacity, payload
  /// bytes).
  size_t CacheEntries() const { return cache_.Size(); }
  size_t CacheCapacity() const { return cache_.Capacity(); }
  size_t CacheBytes() const { return cache_.BytesUsed(); }

  /// Times a fitted valuator was reused instead of refitted.
  uint64_t FitReuses() const;

  /// Eviction counts returned by InvalidateTrain.
  struct InvalidationStats {
    size_t fitted_evicted = 0;
    size_t cache_evicted = 0;
  };

  /// Evicts every fitted valuator whose training corpus has the given
  /// content fingerprint, and every result-cache entry that names it as
  /// train *or* test dataset. The serve layer calls this when a corpus is
  /// dropped or mutated, so stale structures are reclaimed immediately
  /// instead of lingering until LRU pressure.
  InvalidationStats InvalidateTrain(uint64_t train_fingerprint);

  /// Persists the result cache to a versioned binary file, atomically
  /// (see ResultCache::SaveTo). Returns entries written.
  StatusOr<size_t> SaveCache(const std::string& path) const {
    return cache_.SaveTo(path);
  }

  /// Merges a SaveCache file into the result cache so a restarted server
  /// warm-starts; a corrupt tail salvages the valid prefix (see
  /// ResultCache::LoadFrom).
  StatusOr<CacheLoadResult> LoadCache(const std::string& path) {
    return cache_.LoadFrom(path);
  }

  /// Requests answered deadline_exceeded since construction.
  uint64_t DeadlineExceededCount() const {
    return deadline_exceeded_.load(std::memory_order_relaxed);
  }

 private:
  struct FittedKey {
    uint64_t train_fingerprint = 0;
    std::string method;
    uint64_t params_fingerprint = 0;

    bool operator==(const FittedKey& other) const = default;
  };
  struct FittedKeyHash {
    size_t operator()(const FittedKey& key) const;
  };
  /// One entry of the fit table. A slot is fitting (its owner runs the fit
  /// outside fitted_mutex_; duplicates of the key wait on fitted_cv_) or
  /// fitted (`valuator` set, resident until evicted). Every field is read
  /// and written under fitted_mutex_. Waiters hold the slot itself, so they
  /// get the valuator even when FinishFit never leaves it resident.
  struct FitSlot {
    std::shared_ptr<Valuator> valuator;  ///< Null while fitting.
    bool fitting = true;
    /// Latest ValuationRequest::order that used the fitted valuator: the
    /// lowest stamp is evicted first.
    uint64_t order = 0;
    /// Set by InvalidateTrain while the fit is in flight: the finished
    /// valuator still serves the requests already waiting on it, but never
    /// becomes resident, so a corpus dropped mid-fit is reclaimed at once.
    bool invalidated = false;
  };

  /// Returns a fitted valuator for (train, method, params), creating and
  /// fitting one on first use. Per-key serialization only: concurrent
  /// first requests against different (corpus, method, params) keys fit in
  /// parallel. Returns null when the request's deadline expired before a
  /// valuator was fitted. Throws whatever the method factory or Fit throws
  /// (the slot released first). A request that waited on a fit which ended
  /// without a valuator retries the key, as it would one after the other.
  std::shared_ptr<Valuator> GetOrFit(const FittedKey& key,
                                     const ValuationRequest& request,
                                     const ValuatorParams& params,
                                     bool* reused);

  /// Ends the owner's fit of `key`: a valuator is installed at recency
  /// `order` (unless the slot was invalidated), and a null one erases the
  /// slot so its waiters retry. Wakes every waiter.
  void FinishFit(const FittedKey& key, FitSlot& slot,
                 std::shared_ptr<Valuator> valuator, uint64_t order);

  /// Evicts the lowest-stamped fitted slot while more than fitted_capacity
  /// are fitted. Caller holds fitted_mutex_.
  void EvictFittedLocked();

  /// Runs the per-query path (or the batch path) on a fitted valuator. `trace` (nullable) receives merge/finalize spans; deep
  /// per-query phases are recorded only when trace->deep. `cancel`
  /// (nullable) is activated on every worker; once it expires remaining
  /// queries are skipped and the (partial, garbage) result is discarded by
  /// the caller.
  std::vector<double> Run(const Valuator& valuator, const Dataset& test,
                          bool parallel, RequestTrace* trace,
                          const CancelToken* cancel) const;

  /// Bookkeeping for a request that ran out of deadline: counter +
  /// (metrics wired) deadline metric and overshoot histogram.
  void RecordDeadlineExceeded(const CancelToken* cancel);

  /// Fingerprint of the canonicalized params that key the result cache
  /// and the fitted set.
  uint64_t ParamsKey(const MethodSchema& schema, const ValuatorParams& params) const;

  /// Value() minus trace/metrics bookkeeping; all spans recorded here.
  ValuationReport ValueImpl(const ValuationRequest& request,
                            RequestTrace* trace);

  /// Cached per-method metric handles (pointer-stable; resolved once per
  /// method so the hot path pays one small-map lookup, not three registry
  /// mutex trips).
  struct MethodMetrics {
    Counter* requests = nullptr;
    Counter* errors = nullptr;
    Histogram* seconds = nullptr;
  };
  MethodMetrics& MetricsFor(const std::string& method);
  void RecordMetrics(const ValuationReport& report, const RequestTrace& trace);

  EngineOptions options_;
  ValuatorRegistry* registry_;
  ResultCache cache_;

  /// Per-phase time-total counters, resolved at construction (null slots
  /// when no registry). Serve-layer phases (parse/serialize/queue_wait)
  /// are credited by the pipeline, not here.
  Counter* phase_nanos_[kNumPhases] = {};
  mutable std::mutex method_metrics_mutex_;
  std::map<std::string, MethodMetrics> method_metrics_;

  /// The fit table: every fitting and fitted slot, by key.
  mutable std::mutex fitted_mutex_;
  std::condition_variable fitted_cv_;  ///< Signalled when any fit finishes.
  std::unordered_map<FittedKey, std::shared_ptr<FitSlot>, FittedKeyHash> fitted_;
  uint64_t fit_reuses_ = 0;
  std::atomic<uint64_t> next_order_{1};

  std::atomic<uint64_t> deadline_exceeded_{0};
  /// knnshap_deadline_exceeded_total / knnshap_cancel_overshoot_seconds
  /// (null when no registry). The overshoot histogram records how far past
  /// its deadline a cancelled request ran before the block-granularity
  /// checks caught it — the observable cost of cooperative (vs preemptive)
  /// cancellation.
  Counter* deadline_metric_ = nullptr;
  Histogram* overshoot_metric_ = nullptr;
};

}  // namespace knnshap

#endif  // KNNSHAP_ENGINE_ENGINE_H_
