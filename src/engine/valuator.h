// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// The unified valuation interface behind the engine. Each algorithm of the
// paper is exposed as a Valuator: Fit(train) once (building whatever
// retrieval structure the method needs — a kd-tree, a tuned LSH index, or
// nothing), then Value per test batch, many times. Methods whose multi-test
// value decomposes per query (additivity, Eq 8) implement ValueOne and let
// the ValuationEngine shard queries across the shared thread pool; methods
// that only make sense over a whole batch (the Monte-Carlo estimator, whose
// permutation sampling amortizes over the full test utility) implement
// BatchValue instead.
//
// Bitwise-compatibility contract: for per-query methods the engine merges
// per-query values in query order from +0.0 and divides by the query
// count — the float operation order of core's multi-test wrappers
// (ExactKnnShapley et al., which average through MeanOverQueries in
// core/utility.h) — and the ranked methods run the *FromOrder bodies, or
// their rank-space folds (bitwise the same, pinned by tests), on the same
// ranking, so routing through the engine changes no bits of any result,
// serial or parallel.

#ifndef KNNSHAP_ENGINE_VALUATOR_H_
#define KNNSHAP_ENGINE_VALUATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/utility.h"
#include "dataset/dataset.h"
#include "knn/metric.h"
#include "knn/weights.h"
#include "util/status.h"

namespace knnshap {

struct ShardContext;  // shard/topology.h

/// Hyperparameters shared by all valuation methods. Each adapter reads the
/// fields it understands and ignores the rest; which fields a method reads
/// is declared in its MethodSchema (engine/schema.h), and cache keys hash
/// only those declared fields — so changing an undeclared field (e.g.
/// `seed` for the deterministic exact method) invalidates nothing.
struct ValuatorParams {
  int k = 5;                      ///< KNN hyperparameter.
  double epsilon = 0.1;           ///< Approximation budget (Theorems 2/4/5).
  double delta = 0.1;             ///< Failure probability (Theorems 4/5).
  KnnTask task = KnnTask::kClassification;
  WeightConfig weights;           ///< Kernel for the weighted methods.
  Metric metric = Metric::kL2;
  uint64_t seed = 7;              ///< Seed for MC sampling / LSH hashing.
  size_t contrast_sample = 500;   ///< Corpus rows sampled for contrast.
  double utility_range = 0.0;     ///< MC utility range r; 0 = auto (1/k).
  int64_t max_permutations = -1;  ///< MC cap; <0 = stopping rule only.
  int weight_bits = 3;            ///< weighted-fast discretization width.
  double approx_error = 0.0;      ///< weighted-fast truncation budget; 0 = exact.
};

/// One query's values, as the engine holds them until the query's turn to
/// fold. Dense methods leave `order` empty and fill `values` by training
/// row. Rank-space methods keep the query's ranked rows in `order`:
/// `values`, when set, holds the value of each of those rows by rank, and
/// when empty the valuator's MergeInto derives the values from the order
/// itself. A query left empty (skipped past a deadline, or a failed shard
/// fan-out) folds nothing. The engine reuses one QueryValues per query
/// slot across queries and hands it to ValueOne cleared, so a method that
/// ranks writes into `order`'s existing storage.
struct QueryValues {
  std::vector<int> order;
  std::vector<double> values;
  int label = 0;  ///< The query's label, for rank-space folds.

  void Clear() {
    order.clear();
    values.clear();
  }
};

class Valuator {
 public:
  explicit Valuator(ValuatorParams params) : params_(std::move(params)) {}
  virtual ~Valuator() = default;

  Valuator(const Valuator&) = delete;
  Valuator& operator=(const Valuator&) = delete;

  /// Registry key of the method ("exact", "lsh", ...).
  virtual const char* Method() const = 0;

  /// Fits the valuator to `train`: keeps a reference and builds the
  /// method's retrieval structure. Must be called exactly once before any
  /// Value call; the engine reuses a fitted valuator across requests that
  /// share a corpus. Aborts (KNNSHAP_CHECK) on data the method cannot
  /// value, e.g. a corpus without labels for a classification method.
  /// `shard` (null: rank locally) places the ranking of the methods that
  /// consume one (engine/valuators.h) on shard workers; the others ignore
  /// it.
  void Fit(std::shared_ptr<const Dataset> train,
           const ShardContext* shard = nullptr);
  bool Fitted() const { return train_ != nullptr; }

  /// True when the multi-test value is the mean of per-query values (Eq 8)
  /// and ValueOne is implemented; the engine then parallelizes over
  /// queries. False for batch-only methods (ValueBatch is used instead).
  virtual bool SupportsPerQuery() const { return true; }

  /// Values query `row` of `test` into `out`, which arrives cleared (see
  /// QueryValues). Must be const and thread-safe after Fit (the engine
  /// calls it concurrently).
  virtual void ValueOne(const Dataset& test, size_t row, QueryValues* out) const;

  /// Folds one query's values into the row-indexed running accumulator.
  /// The engine calls this strictly in query order — the accumulation
  /// order is the bitwise contract, so the scheduler may bound how many
  /// per-query results are resident without changing a single output bit.
  /// Default: adds dense values element-wise, or by-rank values at their
  /// rows.
  virtual void MergeInto(std::vector<double>* accumulator,
                         const QueryValues& one_query) const;

  /// Final normalization after all queries are folded in. Default: divide
  /// by the query count — the legacy operation order. The LSH adapter
  /// overrides this to match the streaming path's multiply-by-reciprocal.
  virtual void Finalize(std::vector<double>* accumulator, size_t num_queries) const;

  /// Whole-batch valuation for methods with SupportsPerQuery() == false.
  virtual std::vector<double> ValueBatch(const Dataset& test) const;

  /// Liveness of the fitted structure. In-process valuators are always
  /// healthy; a shard-ranked valuator latches a non-OK status when a
  /// worker dies or answers garbage (ValueOne must stay noexcept-ish on
  /// pool threads, so failures surface here). The engine checks after
  /// every Run: a non-OK health evicts the fitted entry — the next
  /// request re-fits, respawning workers — and the current request is
  /// answered with that status instead of a partial merge.
  virtual Status Health() const { return Status::Ok(); }

  /// Serial convenience entry (primarily for tests and tools that bypass
  /// the engine): per-query loop + Merge, or ValueBatch.
  std::vector<double> Value(const Dataset& test) const;

  const ValuatorParams& Params() const { return params_; }
  const Dataset& Train() const;

 protected:
  /// Hook for building method-specific structures; runs inside Fit after
  /// train_ is set.
  virtual void OnFit() {}

  /// The shard context of the Fit in progress; valid only inside OnFit.
  const ShardContext* FitShard() const { return fit_shard_; }

  ValuatorParams params_;
  std::shared_ptr<const Dataset> train_;

 private:
  const ShardContext* fit_shard_ = nullptr;
};

}  // namespace knnshap

#endif  // KNNSHAP_ENGINE_VALUATOR_H_
