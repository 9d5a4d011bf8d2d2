// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "engine/engine.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "knn/distance_kernel.h"
#include "util/fault.h"
#include "util/fingerprint.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace knnshap {

size_t ValuationEngine::FittedKeyHash::operator()(const FittedKey& key) const {
  Fnv64 hash;
  hash.Add(key.train_fingerprint);
  hash.AddString(key.method);
  hash.Add(key.params_fingerprint);
  return static_cast<size_t>(hash.Digest());
}

ValuationEngine::ValuationEngine(const EngineOptions& options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &ValuatorRegistry::Global()),
      cache_(options.result_cache_capacity) {
  if (options_.metrics != nullptr) {
    for (size_t i = 0; i < kNumPhases; ++i) {
      phase_nanos_[i] = options_.metrics->GetCounter(
          std::string("knnshap_phase_nanos_total{phase=\"") +
          PhaseName(static_cast<Phase>(i)) + "\"}");
    }
    deadline_metric_ =
        options_.metrics->GetCounter("knnshap_deadline_exceeded_total");
    overshoot_metric_ =
        options_.metrics->GetHistogram("knnshap_cancel_overshoot_seconds");
  }
}

void ValuationEngine::RecordDeadlineExceeded(const CancelToken* cancel) {
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  if (deadline_metric_ != nullptr) deadline_metric_->Add(1);
  if (overshoot_metric_ != nullptr && cancel != nullptr) {
    overshoot_metric_->Observe(cancel->OvershootSeconds());
  }
}

ValuationReport ValuationEngine::Value(const ValuationRequest& request) {
  // A trace exists when the caller asked for one OR a metrics registry is
  // wired (phase totals feed the registry). `deep` — the per-query spans —
  // stays opt-in either way, so metrics-only serving never pays per-query
  // clock reads. Only a requested trace is heap-allocated and attached to
  // the report; the metrics-only flavor lives on this stack frame — it
  // exists solely to be drained into the registry, and skipping the
  // allocation keeps the always-on path cheap.
  std::shared_ptr<RequestTrace> trace;
  RequestTrace metrics_only;
  RequestTrace* active = nullptr;
  if (request.trace) {
    trace = std::make_shared<RequestTrace>();
    trace->deep = true;
    active = trace.get();
  } else if (options_.metrics != nullptr) {
    active = &metrics_only;
  }
  WallTimer timer;
  // The token rides the requesting thread for the whole request (covers
  // validation, fingerprinting, the fit, and the serial run path); the
  // parallel run re-activates it per worker.
  CancelActivation cancel_scope(request.cancel.get());
  ValuationReport report = ValueImpl(request, active);
  report.seconds = timer.Seconds();
  report.deadline_exceeded_total =
      deadline_exceeded_.load(std::memory_order_relaxed);
  if (active != nullptr) {
    active->kernel = KernelName(ActiveKernel());
    active->cache_hit = report.cache_hit;
    active->fit_reused = report.fit_reused;
    report.trace = trace;  // null in metrics-only mode
    if (options_.metrics != nullptr) RecordMetrics(report, *active);
  }
  return report;
}

uint64_t ValuationEngine::ParamsKey(const MethodSchema& schema,
                                    const ValuatorParams& params) const {
  // Method-scoped identity: only params the schema declares can perturb
  // the key, so e.g. an "exact" entry survives a seed change.
  return schema.ParamsFingerprint(params);
}

std::optional<ResultCacheKey> ValuationEngine::CacheKeyOf(
    const ValuationRequest& request) const {
  if (request.train_fingerprint == 0 || request.test_fingerprint == 0) {
    return std::nullopt;
  }
  std::shared_ptr<const MethodSchema> schema = registry_->Schema(request.method);
  if (schema == nullptr) return std::nullopt;
  ValuatorParams params = request.params;
  if (!schema->Canonicalize(&params).ok()) return std::nullopt;
  return ResultCacheKey{request.train_fingerprint, request.test_fingerprint,
                        request.method, ParamsKey(*schema, params)};
}

ValuationReport ValuationEngine::ValueImpl(const ValuationRequest& request,
                                           RequestTrace* trace) {
  ValuationReport report;
  report.method = request.method;

  // --- Schema-driven validation: errors are responses, not aborts. ------
  std::shared_ptr<const MethodSchema> schema;
  ValuatorParams params = request.params;
  {
    ScopedPhase span(trace, Phase::kValidate);
    schema = registry_->Schema(request.method);
    if (schema == nullptr) {
      report.status = registry_->UnknownMethodError(request.method);
      return report;
    }
    if (request.train == nullptr || request.train->Size() == 0) {
      report.status = Status::InvalidArgument("empty training set", "train");
      return report;
    }
    if (request.train->Size() < schema->min_train_rows) {
      report.status = Status::FailedPrecondition(
          "method '" + request.method + "' needs a training corpus of at least " +
          std::to_string(schema->min_train_rows) + " rows (got " +
          std::to_string(request.train->Size()) + ")");
      return report;
    }
    if (request.test == nullptr || request.test->Size() == 0) {
      report.status = Status::InvalidArgument("empty test batch", "test");
      return report;
    }
    if (request.train->Dim() != request.test->Dim()) {
      report.status = Status::InvalidArgument("train/test dimension mismatch");
      return report;
    }
    // Canonicalize the task and range-check every declared param — the same
    // checks the serve pipeline and the CLI run at parse time, so a request
    // built programmatically fails with the identical structured error.
    if (Status status = schema->Canonicalize(&params); !status.ok()) {
      report.status = std::move(status);
      return report;
    }
    if (schema->RequiresLabels(params.task) &&
        (!request.train->HasLabels() || !request.test->HasLabels())) {
      report.status = Status::FailedPrecondition(
          "method '" + request.method + "' requires labeled data for task '" +
          TaskName(params.task) + "'");
      return report;
    }
    if (schema->RequiresTargets(params.task) &&
        (!request.train->HasTargets() || !request.test->HasTargets())) {
      report.status = Status::FailedPrecondition(
          "method '" + request.method + "' requires regression targets for task '" +
          TaskName(params.task) + "'");
      return report;
    }
    // Joint params-x-data preconditions (e.g. weighted-fast's count-table
    // budget): still a structured response, never a fatal core check.
    if (schema->precondition) {
      if (Status status = schema->precondition(params, *request.train, *request.test);
          !status.ok()) {
        report.status = std::move(status);
        return report;
      }
    }
  }

  report.train_size = request.train->Size();
  report.num_queries = request.test->Size();
  // Analytic approximation bound for these canonicalized params — set
  // before the cache probe so hits and fresh computations report it alike.
  report.approx_bound =
      schema->approx_bound ? schema->approx_bound(params, request.train->Size())
                           : 0.0;

  // An already-expired deadline answers before any real work — in
  // particular before the cache probe, so "deadline_ms":0 is
  // deterministically deadline_exceeded whatever the cache holds (the
  // golden transcript relies on this). The message carries no timing.
  const CancelToken* cancel = request.cancel.get();
  if (cancel != nullptr && cancel->Expired()) {
    RecordDeadlineExceeded(cancel);
    report.status = Status::DeadlineExceeded("deadline exceeded");
    return report;
  }

  uint64_t train_fp, test_fp, params_fp;
  {
    ScopedPhase span(trace, Phase::kFingerprint);
    train_fp = request.train_fingerprint != 0 ? request.train_fingerprint
                                              : DatasetFingerprint(*request.train);
    test_fp = request.test_fingerprint != 0 ? request.test_fingerprint
                                            : DatasetFingerprint(*request.test);
    params_fp = ParamsKey(*schema, params);
  }

  // --- Result cache. ----------------------------------------------------
  ResultCacheKey cache_key{train_fp, test_fp, request.method, params_fp};
  if (request.use_cache) {
    std::shared_ptr<const std::vector<double>> cached;
    {
      ScopedPhase span(trace, Phase::kCacheProbe);
      cached = cache_.Get(cache_key);
    }
    if (cached != nullptr) {
      report.values = *cached;
      {
        ScopedPhase span(trace, Phase::kFinalize);
        report.summary = Summarize(report.values);
      }
      report.cache_hit = true;
      report.cache = cache_.Counters();
      return report;
    }
  }

  // --- Fit (or reuse) and run. ------------------------------------------
  const FittedKey fitted_key{train_fp, request.method, params_fp};
  std::shared_ptr<Valuator> valuator;
  {
    // The fit split is measured unconditionally (two clock reads on an
    // uncached request) so FormatStatusLine can always tell a cold fit
    // from a fast reuse; the trace span reuses the same interval.
    WallTimer fit_timer;
    // A throwing factory/Fit (or an injected `fit` fault) must become a
    // structured response here: Value() runs on pool worker threads, and
    // an escaped exception would take the process down with it.
    try {
      valuator = GetOrFit(fitted_key, request, params, &report.fit_reused);
    } catch (const std::exception& e) {
      report.status = Status::Error(
          StatusCode::kInternal,
          "method '" + request.method + "' fit failed: " + e.what());
    } catch (...) {
      report.status = Status::Error(
          StatusCode::kInternal, "method '" + request.method + "' fit failed");
    }
    report.fit_seconds = fit_timer.Seconds();
    if (trace != nullptr) {
      trace->Add(Phase::kFit,
                 static_cast<uint64_t>(report.fit_seconds * 1e9));
    }
    if (!report.status.ok()) return report;
  }
  if (valuator == nullptr) {  // the deadline expired before a fit
    RecordDeadlineExceeded(cancel);
    report.status = Status::DeadlineExceeded("deadline exceeded");
    return report;
  }
  {
    ScopedPhase span(trace, Phase::kValue);
    report.values =
        Run(*valuator, *request.test, request.parallel, trace, cancel);
  }
  // A deadline that fired mid-run left right-sized garbage in the partial
  // result: discard it, answer the structured error, and keep it out of
  // the cache.
  if (cancel != nullptr && cancel->Expired()) {
    RecordDeadlineExceeded(cancel);
    report.values.clear();
    report.status = Status::DeadlineExceeded("deadline exceeded");
    return report;
  }
  // A valuator that degraded mid-run (a shard worker died) latches
  // Health() non-OK and its queries merged nothing. The dead structure is
  // evicted so the NEXT request re-fits (respawning workers), and this
  // request answers the latched status — typically Unavailable, which the
  // serve layer decorates with retry_after_ms. Never a partial result.
  if (Status health = valuator->Health(); !health.ok()) {
    {
      std::lock_guard<std::mutex> lock(fitted_mutex_);
      auto it = fitted_.find(fitted_key);
      if (it != fitted_.end() && it->second->valuator == valuator) fitted_.erase(it);
    }
    report.values.clear();
    report.status = std::move(health);
    return report;
  }
  {
    ScopedPhase span(trace, Phase::kFinalize);
    report.summary = Summarize(report.values);
  }

  if (request.use_cache) {
    ScopedPhase span(trace, Phase::kCacheStore);
    cache_.Put(cache_key,
               std::make_shared<const std::vector<double>>(report.values));
  }
  report.cache = cache_.Counters();
  return report;
}

ValuationEngine::MethodMetrics& ValuationEngine::MetricsFor(
    const std::string& method) {
  std::lock_guard<std::mutex> lock(method_metrics_mutex_);
  auto it = method_metrics_.find(method);
  if (it == method_metrics_.end()) {
    MethodMetrics handles;
    handles.requests = options_.metrics->GetCounter(
        "knnshap_requests_total{method=\"" + method + "\"}");
    handles.errors = options_.metrics->GetCounter(
        "knnshap_request_errors_total{method=\"" + method + "\"}");
    handles.seconds = options_.metrics->GetHistogram(
        "knnshap_request_seconds{method=\"" + method + "\"}");
    it = method_metrics_.emplace(method, handles).first;
  }
  return it->second;
}

void ValuationEngine::RecordMetrics(const ValuationReport& report,
                                    const RequestTrace& trace) {
  MethodMetrics& handles = MetricsFor(report.method);
  handles.requests->Add(1);
  if (!report.ok()) handles.errors->Add(1);
  handles.seconds->Observe(report.seconds);
  for (size_t i = 0; i < kNumPhases; ++i) {
    const uint64_t nanos = trace.Nanos(static_cast<Phase>(i));
    if (nanos != 0) phase_nanos_[i]->Add(nanos);
  }
}

std::shared_ptr<Valuator> ValuationEngine::GetOrFit(const FittedKey& key,
                                                    const ValuationRequest& request,
                                                    const ValuatorParams& params,
                                                    bool* reused) {
  // Per-corpus fit locking: the engine mutex covers only the fit table.
  // The first request for a key installs a fitting slot and fits *outside*
  // the lock; duplicates for the same key wait on the slot (the same shard
  // workers / LSH index must not be built twice), while cold fits of
  // different corpora overlap freely.
  //
  // A fit that ends without a valuator (it threw, its deadline expired or
  // the factory returned none) is erased, and its waiters come back around
  // — one becomes the new owner — so one client's deadline or transient
  // failure never costs another client its fit.
  const CancelToken* cancel = request.cancel.get();
  const uint64_t order = request.order != 0 ? request.order : NextOrder();
  for (;;) {
    if (cancel != nullptr && cancel->Expired()) return nullptr;
    std::unique_lock<std::mutex> lock(fitted_mutex_);
    auto [it, owner] = fitted_.try_emplace(key);
    if (owner) it->second = std::make_shared<FitSlot>();
    const std::shared_ptr<FitSlot> slot = it->second;
    if (!owner) {
      fitted_cv_.wait(lock, [&] { return !slot->fitting; });
      if (slot->valuator == nullptr) continue;  // the fit ended without one
      // This use counts for recency too: run one after the other, it would
      // have refreshed (or refitted) the key at its own order.
      if (!slot->invalidated) {
        auto [pos, reinstalled] = fitted_.try_emplace(key, slot);
        pos->second->order = std::max(pos->second->order, order);
        if (reinstalled) EvictFittedLocked();
      }
      ++fit_reuses_;
      *reused = true;  // someone else paid for the fit
      return slot->valuator;
    }
    lock.unlock();

    // The factory is an arbitrary std::function and Fit may allocate large
    // structures: if either throws (or the injected `fit` fault fires),
    // the slot must still be finished and the waiters released, or every
    // future request for this key would block forever.
    std::shared_ptr<Valuator> valuator;
    try {
      if (FaultInjectionEnabled() && Fault("fit")) {
        throw std::runtime_error("injected fit fault");
      }
      // The token stays active during the fit so a Fit implementation may
      // poll it; expiry is also checked when the fit returns.
      valuator = registry_->Create(request.method, params);
      if (valuator == nullptr) throw std::runtime_error("no valuator constructed");
      const ShardTopology* topology = options_.shard_topology.get();
      const ShardContext shard{options_.shard_topology, request.train_digests,
                               request.train_name, options_.metrics};
      valuator->Fit(request.train,
                    topology != nullptr && topology->shards > 1 ? &shard : nullptr);
    } catch (...) {
      FinishFit(key, *slot, nullptr, order);
      throw;
    }
    // Deadline expired while fitting: whether Fit finished or bailed at a
    // poll, the structure is not trusted, so the table keeps no trace of
    // this attempt and the request answers deadline_exceeded.
    if (cancel != nullptr && cancel->Expired()) valuator = nullptr;
    FinishFit(key, *slot, valuator, order);
    *reused = false;
    return valuator;
  }
}

void ValuationEngine::FinishFit(const FittedKey& key, FitSlot& slot,
                                std::shared_ptr<Valuator> valuator,
                                uint64_t order) {
  {
    std::lock_guard<std::mutex> lock(fitted_mutex_);
    slot.fitting = false;
    slot.valuator = std::move(valuator);
    slot.order = std::max(slot.order, order);
    // The slot is still the key's entry: nothing erases a fitting slot.
    if (slot.valuator == nullptr || slot.invalidated) {
      fitted_.erase(key);
    } else {
      EvictFittedLocked();
    }
  }
  fitted_cv_.notify_all();
}

void ValuationEngine::EvictFittedLocked() {
  // Ordering by stamp, not by finish time, makes the resident set after a
  // burst of concurrent requests the same as if they had run one by one.
  const size_t capacity = std::max<size_t>(options_.fitted_capacity, 1);
  for (;;) {
    size_t fitted = 0;
    auto victim = fitted_.end();
    for (auto it = fitted_.begin(); it != fitted_.end(); ++it) {
      if (it->second->fitting) continue;
      ++fitted;
      if (victim == fitted_.end() || it->second->order < victim->second->order) {
        victim = it;
      }
    }
    if (fitted <= capacity) return;
    fitted_.erase(victim);
  }
}

std::vector<double> ValuationEngine::Run(const Valuator& valuator,
                                         const Dataset& test, bool parallel,
                                         RequestTrace* trace,
                                         const CancelToken* cancel) const {
  // Deep per-query spans (distance/sort/retrieve/recursion, recorded by
  // the shared kernels through the thread-local active trace) are opt-in:
  // a metrics-only trace never reaches worker threads.
  RequestTrace* deep = (trace != nullptr && trace->deep) ? trace : nullptr;
  if (!valuator.SupportsPerQuery()) {
    TraceActivation activation(deep);
    CancelActivation cancel_scope(cancel);
    return valuator.ValueBatch(test);
  }
  // Queries run through ParallelForHelping: the calling thread works the
  // loop itself and idle pool workers join it, so this is safe from a
  // pool worker (the serve pipeline's request jobs) and a busy pool
  // degrades to a serial loop. Per-query results are folded into the
  // accumulator strictly in query order, so neither thread count nor
  // scheduling can change a single bit of the output — which lets the
  // scheduler bound resident memory to O(chunk * N) instead of
  // O(num_queries * N) on huge batches. A serial request values and folds
  // one query at a time through a single slot; slots keep their storage
  // from chunk to chunk, and slot 0 keeps its order storage on this thread
  // from request to request, so a one-query or serial request allocates
  // no order.
  const size_t chunk =
      parallel ? std::min<size_t>(std::max<size_t>(options_.max_resident_queries, 1),
                                  test.Size())
               : 1;
  std::vector<double> sv(valuator.Train().Size(), 0.0);
  std::vector<QueryValues> per_query(chunk);
  static thread_local std::vector<int> spare_order;
  per_query[0].order.swap(spare_order);
  for (size_t start = 0; start < test.Size(); start += chunk) {
    const size_t count = std::min(chunk, test.Size() - start);
    ThreadPool::Shared().ParallelForHelping(count, [&](size_t j) {
      TraceActivation activation(deep);
      CancelActivation cancel_scope(cancel);
      // Queries past an expired deadline are skipped outright; queries in
      // flight bail at the deep loops' own block-granularity polls. Either
      // way the caller observes Expired() and discards the whole result.
      per_query[j].Clear();
      if (cancel != nullptr && cancel->Expired()) return;
      valuator.ValueOne(test, start + j, &per_query[j]);
    });
    ScopedPhase span(trace, Phase::kMerge);
    // A rank-space fold runs the recursion here, under deep spans.
    TraceActivation activation(deep);
    for (size_t j = 0; j < count; ++j) valuator.MergeInto(&sv, per_query[j]);
    if (cancel != nullptr && cancel->Expired()) break;
  }
  per_query[0].order.swap(spare_order);
  {
    ScopedPhase span(trace, Phase::kFinalize);
    valuator.Finalize(&sv, test.Size());
  }
  return sv;
}

size_t ValuationEngine::FittedCount() const {
  std::lock_guard<std::mutex> lock(fitted_mutex_);
  size_t count = 0;
  for (const auto& [key, slot] : fitted_) count += slot->fitting ? 0 : 1;
  return count;
}

std::unordered_map<uint64_t, size_t> ValuationEngine::FittedByTrain() const {
  std::lock_guard<std::mutex> lock(fitted_mutex_);
  std::unordered_map<uint64_t, size_t> counts;
  for (const auto& [key, slot] : fitted_) {
    if (!slot->fitting) ++counts[key.train_fingerprint];
  }
  return counts;
}

uint64_t ValuationEngine::FitReuses() const {
  std::lock_guard<std::mutex> lock(fitted_mutex_);
  return fit_reuses_;
}

ValuationEngine::InvalidationStats ValuationEngine::InvalidateTrain(
    uint64_t train_fingerprint) {
  InvalidationStats stats;
  stats.cache_evicted = cache_.EraseFingerprint(train_fingerprint);
  std::lock_guard<std::mutex> lock(fitted_mutex_);
  // In-flight fits of this corpus are poisoned rather than erased: they
  // finish without becoming resident, and their waiters are still served.
  for (auto it = fitted_.begin(); it != fitted_.end();) {
    if (it->first.train_fingerprint != train_fingerprint) {
      ++it;
    } else if (it->second->fitting) {
      it->second->invalidated = true;
      ++it;
    } else {
      it = fitted_.erase(it);
      ++stats.fitted_evicted;
    }
  }
  return stats;
}

}  // namespace knnshap
