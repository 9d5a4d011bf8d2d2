// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Tests for the unified valuation engine: registry resolution, adapter
// agreement with the standalone entry points (bitwise, where the contract
// promises it), result-cache semantics including fingerprint invalidation,
// fitted-valuator reuse, and parallel/serial determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/exact_knn_shapley.h"
#include "core/improved_mc.h"
#include "core/knn_regression_shapley.h"
#include "core/lsh_knn_shapley.h"
#include "core/streaming_valuator.h"
#include "core/weighted_knn_shapley.h"
#include "core/wknn_shapley.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "engine/result_cache.h"
#include "engine/valuators.h"
#include "test_util.h"
#include "util/fingerprint.h"

namespace knnshap {
namespace {

using testing_util::RandomClassDataset;
using testing_util::RandomRegDataset;

std::shared_ptr<const Dataset> Shared(Dataset data) {
  return std::make_shared<const Dataset>(std::move(data));
}

ValuationRequest ClassificationRequest(std::shared_ptr<const Dataset> train,
                                       std::shared_ptr<const Dataset> test,
                                       const std::string& method, int k) {
  ValuationRequest request;
  request.method = method;
  request.params.k = k;
  request.train = std::move(train);
  request.test = std::move(test);
  return request;
}

// --- Registry ---------------------------------------------------------------

TEST(RegistryTest, BuiltinMethodsRegistered) {
  auto& registry = ValuatorRegistry::Global();
  for (const char* name : {"exact", "truncated", "lsh", "mc", "weighted",
                           "weighted-fast", "regression"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto valuator = registry.Create(name, ValuatorParams{});
    ASSERT_NE(valuator, nullptr) << name;
    EXPECT_STREQ(valuator->Method(), name);
    EXPECT_FALSE(valuator->Fitted());
  }
}

TEST(RegistryTest, UnknownMethodCreatesNull) {
  auto& registry = ValuatorRegistry::Global();
  EXPECT_FALSE(registry.Contains("no-such-method"));
  EXPECT_EQ(registry.Create("no-such-method", ValuatorParams{}), nullptr);
}

TEST(RegistryTest, UnknownMethodIsAnEngineErrorNotAnAbort) {
  ValuationEngine engine;
  auto train = Shared(RandomClassDataset(20, 2, 4, 1));
  auto test = Shared(RandomClassDataset(3, 2, 4, 2));
  ValuationRequest request = ClassificationRequest(train, test, "no-such-method", 3);
  ValuationReport report = engine.Value(request);
  EXPECT_FALSE(report.ok());
  // The error must name the offender and list what IS registered.
  EXPECT_NE(report.status.message().find("no-such-method"), std::string::npos);
  EXPECT_NE(report.status.message().find("exact"), std::string::npos);
  EXPECT_TRUE(report.values.empty());
}

TEST(RegistryTest, MethodListIsSortedAndDescribed) {
  auto methods = ValuatorRegistry::Global().Methods();
  ASSERT_GE(methods.size(), 6u);
  for (size_t i = 1; i < methods.size(); ++i) {
    EXPECT_LT(methods[i - 1].name, methods[i].name);
  }
  for (const auto& info : methods) EXPECT_FALSE(info.description.empty());
}

// --- Adapter agreement with the standalone entry points ---------------------

TEST(EngineAgreementTest, ExactMatchesLegacyBitwise) {
  auto train = Shared(RandomClassDataset(60, 3, 6, 11));
  auto test = Shared(RandomClassDataset(9, 3, 6, 12));
  ValuationEngine engine;
  ValuationReport report =
      engine.Value(ClassificationRequest(train, test, "exact", 4));
  ASSERT_TRUE(report.ok()) << report.status.ToString();
  std::vector<double> legacy = ExactKnnShapley(*train, *test, 4);
  EXPECT_EQ(report.values, legacy);  // bitwise
}

TEST(EngineAgreementTest, TruncatedMatchesLegacy) {
  auto train = Shared(RandomClassDataset(80, 2, 5, 21));
  auto test = Shared(RandomClassDataset(7, 2, 5, 22));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "truncated", 3);
  request.params.epsilon = 0.05;
  ValuationReport report = engine.Value(request);
  ASSERT_TRUE(report.ok()) << report.status.ToString();
  std::vector<double> legacy = TruncatedKnnShapley(*train, *test, 3, 0.05);
  // kd-tree vs partial-selection retrieval: same neighbors on tie-free
  // random data, so same values.
  EXPECT_EQ(report.values, legacy);
}

TEST(EngineAgreementTest, LshMatchesStreamingValuatorBitwise) {
  auto train = Shared(RandomClassDataset(120, 2, 8, 31));
  auto test = Shared(RandomClassDataset(11, 2, 8, 32));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "lsh", 3);
  request.params.epsilon = 0.1;
  request.params.delta = 0.1;
  request.params.seed = 7;
  ValuationReport report = engine.Value(request);
  ASSERT_TRUE(report.ok()) << report.status.ToString();

  StreamingValuatorOptions options;
  options.k = 3;
  options.epsilon = 0.1;
  options.delta = 0.1;
  options.seed = 7;
  StreamingValuator streaming(*train, options);
  for (size_t j = 0; j < test->Size(); ++j) {
    streaming.ProcessQuery(test->features.Row(j), test->labels[j]);
  }
  EXPECT_EQ(report.values, streaming.Values());  // bitwise
}

TEST(EngineAgreementTest, McMatchesLegacyBitwise) {
  auto train = Shared(RandomClassDataset(40, 2, 4, 41));
  auto test = Shared(RandomClassDataset(5, 2, 4, 42));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "mc", 3);
  request.params.epsilon = 0.25;
  request.params.delta = 0.2;
  request.params.seed = 9;
  ValuationReport report = engine.Value(request);
  ASSERT_TRUE(report.ok()) << report.status.ToString();

  IncrementalKnnUtility utility(train.get(), test.get(), 3,
                                KnnTask::kClassification);
  ImprovedMcOptions options;
  options.k = 3;
  options.epsilon = 0.25;
  options.delta = 0.2;
  options.utility_range = 1.0 / 3;
  options.seed = 9;
  EXPECT_EQ(report.values, ImprovedMcShapley(&utility, options).shapley);
}

TEST(EngineAgreementTest, RegressionMatchesLegacyBitwise) {
  auto train = Shared(RandomRegDataset(50, 4, 51));
  auto test = Shared(RandomRegDataset(6, 4, 52));
  ValuationEngine engine;
  ValuationRequest request;
  request.method = "regression";
  request.params.k = 3;
  request.params.task = KnnTask::kRegression;
  request.train = train;
  request.test = test;
  ValuationReport report = engine.Value(request);
  ASSERT_TRUE(report.ok()) << report.status.ToString();
  EXPECT_EQ(report.values, ExactKnnRegressionShapley(*train, *test, 3));
}

TEST(EngineAgreementTest, WeightedMatchesLegacyBitwise) {
  auto train = Shared(RandomClassDataset(16, 2, 3, 61));
  auto test = Shared(RandomClassDataset(3, 2, 3, 62));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "weighted", 2);
  request.params.task = KnnTask::kWeightedClassification;
  request.params.weights.kernel = WeightKernel::kInverseDistance;
  ValuationReport report = engine.Value(request);
  ASSERT_TRUE(report.ok()) << report.status.ToString();

  WeightedShapleyOptions options;
  options.k = 2;
  options.weights.kernel = WeightKernel::kInverseDistance;
  options.task = KnnTask::kWeightedClassification;
  EXPECT_EQ(report.values, ExactWeightedKnnShapley(*train, *test, options));
}

TEST(EngineAgreementTest, WeightedFastMatchesCoreBitwise) {
  auto train = Shared(RandomClassDataset(40, 2, 3, 63));
  auto test = Shared(RandomClassDataset(4, 2, 3, 64));
  ValuationEngine engine;
  ValuationRequest request =
      ClassificationRequest(train, test, "weighted-fast", 3);
  request.params.task = KnnTask::kWeightedClassification;
  request.params.weights.kernel = WeightKernel::kInverseDistance;
  request.params.weight_bits = 4;
  ValuationReport report = engine.Value(request);
  ASSERT_TRUE(report.ok()) << report.status.ToString();

  WknnShapleyOptions options;
  options.k = 3;
  options.weights.kernel = WeightKernel::kInverseDistance;
  options.weight_bits = 4;
  EXPECT_EQ(report.values, WknnShapley(*train, *test, options));

  // A repeat must be served from the cache with bitwise-equal values, and
  // an approx_error change (declared) must miss — the method-scoped
  // fingerprint covers the new params.
  ValuationReport repeat = engine.Value(request);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.values, report.values);
  request.params.approx_error = 0.01;
  ValuationReport truncated = engine.Value(request);
  ASSERT_TRUE(truncated.ok()) << truncated.status.ToString();
  EXPECT_FALSE(truncated.cache_hit);
  double worst = 0.0;
  for (size_t i = 0; i < report.values.size(); ++i) {
    worst = std::max(worst, std::fabs(truncated.values[i] - report.values[i]));
  }
  EXPECT_LE(worst, 0.01 + 1e-12);
}

// --- Determinism ------------------------------------------------------------

TEST(EngineDeterminismTest, ParallelAndSerialAreBitwiseEqual) {
  auto train = Shared(RandomClassDataset(100, 3, 6, 71));
  auto test = Shared(RandomClassDataset(17, 3, 6, 72));
  for (const char* method : {"exact", "truncated"}) {
    ValuationEngine engine;
    ValuationRequest request = ClassificationRequest(train, test, method, 5);
    request.use_cache = false;  // make both runs compute
    request.parallel = true;
    ValuationReport parallel_report = engine.Value(request);
    request.parallel = false;
    ValuationReport serial_report = engine.Value(request);
    ASSERT_TRUE(parallel_report.ok()) << parallel_report.status.ToString();
    ASSERT_TRUE(serial_report.ok()) << serial_report.status.ToString();
    EXPECT_EQ(parallel_report.values, serial_report.values) << method;
  }
}

TEST(EngineDeterminismTest, ChunkSizeCannotChangeOutputBits) {
  // The scheduler bounds resident memory by processing the batch in
  // chunks; accumulation stays in query order, so any chunk size must
  // produce the identical vector — including the legacy all-at-once order.
  auto train = Shared(RandomClassDataset(50, 3, 5, 75));
  auto test = Shared(RandomClassDataset(13, 3, 5, 76));
  std::vector<std::vector<double>> results;
  for (size_t chunk : {size_t{1}, size_t{4}, size_t{256}}) {
    EngineOptions options;
    options.max_resident_queries = chunk;
    ValuationEngine engine(options);
    ValuationReport report =
        engine.Value(ClassificationRequest(train, test, "exact", 3));
    ASSERT_TRUE(report.ok()) << report.status.ToString();
    results.push_back(report.values);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
  EXPECT_EQ(results[2], ExactKnnShapley(*train, *test, 3));  // legacy order
}

TEST(EngineDeterminismTest, RepeatedRunsAreBitwiseEqual) {
  auto train = Shared(RandomClassDataset(60, 2, 5, 81));
  auto test = Shared(RandomClassDataset(8, 2, 5, 82));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "exact", 3);
  request.use_cache = false;
  ValuationReport first = engine.Value(request);
  ValuationReport second = engine.Value(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.values, second.values);
  EXPECT_FALSE(second.cache_hit);  // cache was off — these really recomputed
}

// --- Result cache -----------------------------------------------------------

TEST(EngineCacheTest, RepeatRequestHitsAndIsBitwiseEqual) {
  auto train = Shared(RandomClassDataset(50, 2, 4, 91));
  auto test = Shared(RandomClassDataset(6, 2, 4, 92));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "exact", 3);

  ValuationReport first = engine.Value(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(engine.CacheStats().misses, 1u);

  ValuationReport second = engine.Value(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.values, first.values);  // bitwise
  EXPECT_EQ(engine.CacheStats().hits, 1u);
}

TEST(EngineCacheTest, DatasetMutationInvalidates) {
  Dataset train = RandomClassDataset(40, 2, 4, 101);
  auto test = Shared(RandomClassDataset(5, 2, 4, 102));
  ValuationEngine engine;

  ValuationRequest request = ClassificationRequest(Shared(train), test, "exact", 3);
  EXPECT_FALSE(engine.Value(request).cache_hit);
  EXPECT_TRUE(engine.Value(request).cache_hit);

  // Flip one label: the content fingerprint must change, so the repeat is a
  // miss and the values differ where the flipped point matters.
  train.labels[0] ^= 1;
  ValuationRequest mutated = ClassificationRequest(Shared(train), test, "exact", 3);
  ValuationReport report = engine.Value(mutated);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.cache_hit);
}

TEST(EngineCacheTest, HyperparameterChangeMisses) {
  auto train = Shared(RandomClassDataset(40, 2, 4, 111));
  auto test = Shared(RandomClassDataset(5, 2, 4, 112));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "exact", 3);
  EXPECT_FALSE(engine.Value(request).cache_hit);
  request.params.k = 4;
  EXPECT_FALSE(engine.Value(request).cache_hit);
  request.params.k = 3;
  EXPECT_TRUE(engine.Value(request).cache_hit);
}

TEST(EngineCacheTest, TestBatchChangeMissesButReusesFit) {
  auto train = Shared(RandomClassDataset(60, 2, 5, 121));
  auto test_a = Shared(RandomClassDataset(5, 2, 5, 122));
  auto test_b = Shared(RandomClassDataset(5, 2, 5, 123));
  ValuationEngine engine;

  ValuationRequest request = ClassificationRequest(train, test_a, "truncated", 3);
  ValuationReport first = engine.Value(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.fit_reused);

  // New query batch, same corpus: result-cache miss, but the kd-tree is
  // reused instead of rebuilt.
  request.test = test_b;
  ValuationReport second = engine.Value(request);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.fit_reused);
  EXPECT_EQ(engine.FitReuses(), 1u);
  EXPECT_EQ(engine.FittedCount(), 1u);
}

TEST(EngineCacheTest, FittedEvictionFollowsOrderStampsNotFinishTime) {
  // Three corpora finish in the order of stamps 3, 1, 2, as concurrent
  // requests may. The two latest stamps stay resident, exactly as if the
  // requests had run one by one in stamp order.
  EngineOptions options;
  options.fitted_capacity = 2;
  ValuationEngine engine(options);
  auto test = Shared(RandomClassDataset(3, 2, 4, 131));
  std::vector<std::shared_ptr<const Dataset>> trains;
  for (uint64_t seed : {132, 133, 134}) {
    trains.push_back(Shared(RandomClassDataset(20, 2, 4, seed)));
  }
  const uint64_t base = engine.NextOrder();
  for (size_t i : {2, 0, 1}) {
    ValuationRequest request = ClassificationRequest(trains[i], test, "exact", 3);
    request.order = base + 1 + i;
    ASSERT_TRUE(engine.Value(request).ok());
  }
  const auto resident = engine.FittedByTrain();
  EXPECT_EQ(resident.size(), 2u);
  EXPECT_EQ(resident.count(DatasetFingerprint(*trains[0])), 0u);
  EXPECT_EQ(resident.count(DatasetFingerprint(*trains[1])), 1u);
  EXPECT_EQ(resident.count(DatasetFingerprint(*trains[2])), 1u);
}

TEST(ResultCacheTest, LruEvictionAndCounters) {
  ResultCache cache(2);
  auto values = std::make_shared<const std::vector<double>>(std::vector<double>{1.0});
  ResultCacheKey a{1, 1, "exact", 1};
  ResultCacheKey b{2, 2, "exact", 2};
  ResultCacheKey c{3, 3, "exact", 3};

  EXPECT_EQ(cache.Get(a), nullptr);  // miss
  cache.Put(a, values);
  cache.Put(b, values);
  EXPECT_NE(cache.Get(a), nullptr);  // a is now MRU
  cache.Put(c, values);              // evicts b (LRU)
  EXPECT_EQ(cache.Get(b), nullptr);
  EXPECT_NE(cache.Get(c), nullptr);
  EXPECT_EQ(cache.Size(), 2u);

  CacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.hits, 2u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.evictions, 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  ResultCacheKey key{1, 1, "exact", 1};
  cache.Put(key, std::make_shared<const std::vector<double>>());
  EXPECT_EQ(cache.Get(key), nullptr);
  EXPECT_EQ(cache.Size(), 0u);
}

// --- Method-scoped fingerprints ---------------------------------------------

TEST(EngineScopedFingerprintTest, ExactResultSurvivesUndeclaredParamChange) {
  // "exact" declares {k, metric}; seed/epsilon/delta cannot perturb its
  // results. Method-scoped keys make the repeat a cache hit (and reuse the
  // fitted valuator).
  auto train = Shared(RandomClassDataset(40, 2, 4, 161));
  auto test = Shared(RandomClassDataset(5, 2, 4, 162));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "exact", 3);
  ValuationReport first = engine.Value(request);
  ASSERT_TRUE(first.ok()) << first.status.ToString();

  request.params.seed += 17;
  request.params.epsilon *= 2;
  request.params.delta /= 2;
  ValuationReport second = engine.Value(request);
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.values, first.values);

  // With the cache bypassed and yet another undeclared perturbation, the
  // fitted valuator tells the same story: scoped keys reuse the fitted
  // structure.
  request.use_cache = false;
  request.params.seed += 1;
  ValuationReport third = engine.Value(request);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.fit_reused);
  EXPECT_EQ(third.values, first.values);
}

TEST(EngineScopedFingerprintTest, DeclaredParamChangeStillInvalidates) {
  // "mc" declares seed: a seed change must miss and recompute.
  auto train = Shared(RandomClassDataset(30, 2, 3, 163));
  auto test = Shared(RandomClassDataset(4, 2, 3, 164));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "mc", 3);
  request.params.max_permutations = 16;
  EXPECT_FALSE(engine.Value(request).cache_hit);
  request.params.seed += 1;
  EXPECT_FALSE(engine.Value(request).cache_hit);
  request.params.seed -= 1;
  EXPECT_TRUE(engine.Value(request).cache_hit);
}

TEST(EngineScopedFingerprintTest, NoCrossMethodFalseHits) {
  // Two methods with identical declared params must never alias: same
  // (train, test, k, metric) through exact and exact-corrected computes
  // twice and returns different vectors.
  auto train = Shared(RandomClassDataset(50, 2, 4, 165));
  auto test = Shared(RandomClassDataset(6, 2, 4, 166));
  ValuationEngine engine;
  ValuationReport exact =
      engine.Value(ClassificationRequest(train, test, "exact", 3));
  ValuationReport corrected =
      engine.Value(ClassificationRequest(train, test, "exact-corrected", 3));
  ASSERT_TRUE(exact.ok() && corrected.ok());
  EXPECT_FALSE(corrected.cache_hit);
  EXPECT_NE(exact.values, corrected.values);
  EXPECT_EQ(engine.CacheStats().hits, 0u);
}

// --- Structured engine errors ----------------------------------------------

TEST(EngineStatusTest, OutOfRangeDeclaredParamNamesTheField) {
  auto train = Shared(RandomClassDataset(20, 2, 4, 171));
  auto test = Shared(RandomClassDataset(3, 2, 4, 172));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "truncated", 3);
  request.params.epsilon = -0.5;
  ValuationReport report = engine.Value(request);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.status.field(), "epsilon");
  EXPECT_EQ(report.status.message(), "'epsilon' must be > 0 (got -0.5)");

  request.params.epsilon = 0.1;
  request.params.k = 0;
  report = engine.Value(request);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.field(), "k");
}

TEST(EngineStatusTest, WeightedFastTableBudgetIsAStructuredError) {
  // k=70 and weight_bits=3 are each inside their schema ranges, but their
  // joint count-table footprint on a 80-row corpus exceeds the per-query
  // budget. The schema precondition must turn that into a response — the
  // previous behavior was a fatal KNNSHAP_CHECK that killed the process
  // (and with it, a serve instance and every in-flight request).
  auto train = Shared(RandomClassDataset(80, 2, 3, 65));
  auto test = Shared(RandomClassDataset(2, 2, 3, 66));
  ValuationEngine engine;
  ValuationRequest request =
      ClassificationRequest(train, test, "weighted-fast", 70);
  request.params.task = KnnTask::kWeightedClassification;
  ValuationReport report = engine.Value(request);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.status.field(), "k");

  // The same k on a tiny corpus is fine: the effective K is min(k, N).
  auto small = Shared(RandomClassDataset(6, 2, 3, 67));
  ValuationRequest capped = ClassificationRequest(small, test, "weighted-fast", 70);
  capped.params.task = KnnTask::kWeightedClassification;
  EXPECT_TRUE(engine.Value(capped).ok());

  // The core exposes the same verdicts directly.
  EXPECT_FALSE(WknnTableBudget(80, 70, 3).ok());
  EXPECT_TRUE(WknnTableBudget(6, 70, 3).ok());
  EXPECT_TRUE(WknnTableBudget(80, 5, 8).ok());
  EXPECT_FALSE(WknnTableBudget(10000, 30, 8).ok());
}

TEST(EngineStatusTest, DisallowedTaskIsAStructuredError) {
  auto train = Shared(RandomClassDataset(20, 2, 4, 173));
  auto test = Shared(RandomClassDataset(3, 2, 4, 174));
  ValuationEngine engine;
  ValuationRequest request = ClassificationRequest(train, test, "weighted", 2);
  request.params.task = KnnTask::kClassification;  // weighted tasks only
  ValuationReport report = engine.Value(request);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.status.field(), "task");
  EXPECT_NE(report.status.message().find("weighted-classification"),
            std::string::npos);
}

TEST(EngineStatusTest, SingleTaskMethodCanonicalizesTask) {
  // Single-task methods define their task: a programmatic request with the
  // default (classification) task against the regression method is
  // coerced, matching the legacy adapters' behavior of ignoring task.
  auto train = Shared(RandomRegDataset(30, 3, 175));
  auto test = Shared(RandomRegDataset(4, 3, 176));
  ValuationEngine engine;
  ValuationRequest request;
  request.method = "regression";
  request.params.k = 3;  // task left at kClassification
  request.train = train;
  request.test = test;
  ValuationReport report = engine.Value(request);
  EXPECT_TRUE(report.ok()) << report.status.ToString();
  EXPECT_EQ(report.values, ExactKnnRegressionShapley(*train, *test, 3));
}

// --- Fingerprints -----------------------------------------------------------

TEST(FingerprintTest, SensitiveToEveryComponent) {
  Dataset data = RandomClassDataset(10, 2, 3, 131);
  const uint64_t base = DatasetFingerprint(data);
  EXPECT_EQ(DatasetFingerprint(data), base);  // deterministic

  Dataset copy = data;
  EXPECT_EQ(DatasetFingerprint(copy), base);  // content, not identity
  copy.name = "renamed";
  EXPECT_EQ(DatasetFingerprint(copy), base);  // name excluded by design

  Dataset label_flip = data;
  label_flip.labels[3] ^= 1;
  EXPECT_NE(DatasetFingerprint(label_flip), base);

  Dataset feature_edit = data;
  feature_edit.features.At(4, 1) += 1.0f;
  EXPECT_NE(DatasetFingerprint(feature_edit), base);

  Dataset with_targets = data;
  with_targets.targets.assign(data.Size(), 0.0);
  EXPECT_NE(DatasetFingerprint(with_targets), base);
}

// --- Request validation -----------------------------------------------------

TEST(EngineValidationTest, RejectsIncompatibleData) {
  ValuationEngine engine;
  auto labeled_train = Shared(RandomClassDataset(20, 2, 4, 141));
  auto labeled_test = Shared(RandomClassDataset(3, 2, 4, 142));

  {  // regression method on label-only data
    ValuationRequest request;
    request.method = "regression";
    request.params.task = KnnTask::kRegression;
    request.train = labeled_train;
    request.test = labeled_test;
    ValuationReport report = engine.Value(request);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.status.message().find("targets"), std::string::npos);
  }
  {  // classification method on target-only data
    ValuationRequest request = ClassificationRequest(
        Shared(RandomRegDataset(20, 4, 143)), Shared(RandomRegDataset(3, 4, 144)),
        "exact", 3);
    EXPECT_FALSE(engine.Value(request).ok());
  }
  {  // dimension mismatch
    ValuationRequest request = ClassificationRequest(
        labeled_train, Shared(RandomClassDataset(3, 2, 5, 145)), "exact", 3);
    ValuationReport report = engine.Value(request);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.status.message().find("dimension"), std::string::npos);
  }
  {  // missing datasets
    ValuationRequest request;
    request.method = "exact";
    EXPECT_FALSE(engine.Value(request).ok());
  }
}

// --- Reports ----------------------------------------------------------------

TEST(EngineReportTest, CarriesSummaryAndShape) {
  auto train = Shared(RandomClassDataset(30, 2, 4, 151));
  auto test = Shared(RandomClassDataset(4, 2, 4, 152));
  ValuationEngine engine;
  ValuationReport report =
      engine.Value(ClassificationRequest(train, test, "exact", 3));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.method, "exact");
  EXPECT_EQ(report.train_size, 30u);
  EXPECT_EQ(report.num_queries, 4u);
  EXPECT_EQ(report.values.size(), 30u);
  // Efficiency axiom: unweighted KNN SVs over a labeled test set sum to the
  // mean test utility, which lies in [0, 1].
  EXPECT_GE(report.summary.total, 0.0);
  EXPECT_LE(report.summary.total, 1.0);
  EXPECT_FALSE(report.FormatStatusLine().empty());
  EXPECT_GE(report.seconds, 0.0);
}

}  // namespace
}  // namespace knnshap
