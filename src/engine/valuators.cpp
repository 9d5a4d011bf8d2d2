// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "engine/valuators.h"

#include <algorithm>
#include <string>

#include "core/corrected_knn_shapley.h"
#include "core/exact_knn_shapley.h"
#include "core/improved_mc.h"
#include "core/knn_regression_shapley.h"
#include "core/lsh_knn_shapley.h"
#include "core/weighted_knn_shapley.h"
#include "engine/registry.h"
#include "obs/trace.h"
#include "shard/shard_ranking.h"
#include "util/cancel.h"
#include "util/common.h"

namespace knnshap {

namespace {

// Scatters rank-ordered values of retrieved neighbors into a dense
// row-indexed vector (zeros elsewhere).
std::vector<double> ScatterByRank(size_t n, const std::vector<Neighbor>& neighbors,
                                  const std::vector<double>& by_rank) {
  std::vector<double> sv(n, 0.0);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    sv[static_cast<size_t>(neighbors[i].index)] = by_rank[i];
  }
  return sv;
}

int TestLabel(const Dataset& test, size_t row) {
  return test.HasLabels() ? test.labels[row] : 0;
}

double TestTarget(const Dataset& test, size_t row) {
  return test.HasTargets() ? test.targets[row] : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ranked methods: exact, exact-corrected, truncated (weighted-fast,
// weighted and regression below)
// ---------------------------------------------------------------------------

std::vector<double> RankedValuator::ValueOne(const Dataset& test,
                                             size_t row) const {
  if (depth_ == 0) return FromRanking({}, {}, test, row);
  // Per-thread scratch: the engine drives many queries per pool thread,
  // and the N-row buffers would otherwise be reallocated per query.
  static thread_local std::vector<double> dists;
  static thread_local std::vector<int> order;
  const bool ranked = ranking_->Rank(test.features.Row(row), depth_, &dists, &order);
  // A fired deadline answers right-sized zeros and a failed shard fan-out
  // (Health() latched) an empty vector; the engine discards both.
  if (CancelRequested()) return std::vector<double>(Train().Size(), 0.0);
  if (!ranked) return {};
  return FromRanking(order, dists, test, row);
}

Status RankedValuator::Health() const {
  return ranking_ != nullptr ? ranking_->Health() : Status::Ok();
}

void RankedValuator::FitRanking(Metric metric, size_t depth) {
  depth_ = depth;
  if (FitShard() != nullptr) {
    ranking_ = std::make_unique<ShardRanking>(Train(), metric, *FitShard());
  } else {
    ranking_ = std::make_unique<LocalRanking>(&Train().features, metric);
  }
}

void ExactValuator::OnFit() {
  KNNSHAP_CHECK(Train().HasLabels(), "exact: labeled corpus required");
  const size_t n = Train().Size();
  FitRanking(params_.metric,
             params_.approx_error > 0.0
                 ? TruncatedExactEffectiveRank(
                       static_cast<size_t>(KStar(params_.k, params_.approx_error)),
                       n, params_.k)
                 : n);
}

std::vector<double> ExactValuator::FromRanking(std::span<const int> order,
                                               std::span<const double>,
                                               const Dataset& test,
                                               size_t row) const {
  const std::vector<int>& labels = Train().labels;
  const int test_label = TestLabel(test, row);
  return order.size() < labels.size()
             ? TruncatedExactKnnShapleyFromOrder(order, labels, test_label,
                                                 params_.k, labels.size())
             : ExactKnnShapleyFromOrder(order, labels, test_label, params_.k);
}

void CorrectedValuator::OnFit() {
  KNNSHAP_CHECK(Train().HasLabels(), "exact-corrected: labeled corpus required");
  const size_t n = Train().Size();
  size_t depth = n;
  if (params_.approx_error > 0.0) {
    // The truncated N-1 < K regime is labels-only: no ranking at all.
    depth = static_cast<int>(n) - 1 < params_.k
                ? 0
                : TruncatedCorrectedEffectiveRank(
                      static_cast<size_t>(KStar(params_.k, params_.approx_error)),
                      n, params_.k);
  }
  FitRanking(params_.metric, depth);
}

std::vector<double> CorrectedValuator::FromRanking(std::span<const int> order,
                                                   std::span<const double>,
                                                   const Dataset& test,
                                                   size_t row) const {
  const std::vector<int>& labels = Train().labels;
  const int test_label = TestLabel(test, row);
  return order.size() < labels.size()
             ? TruncatedCorrectedKnnShapleyFromOrder(order, labels, test_label,
                                                     params_.k)
             : CorrectedKnnShapleyFromOrder(order, labels, test_label, params_.k);
}

void TruncatedValuator::OnFit() {
  KNNSHAP_CHECK(Train().HasLabels(), "truncated: labeled corpus required");
  FitRanking(Metric::kL2, static_cast<size_t>(KStar(params_.k, params_.epsilon)));
}

std::vector<double> TruncatedValuator::FromRanking(std::span<const int> order,
                                                   std::span<const double> dists,
                                                   const Dataset& test,
                                                   size_t row) const {
  std::vector<Neighbor> neighbors;
  neighbors.reserve(order.size());
  for (int i : order) neighbors.push_back({i, dists[static_cast<size_t>(i)]});
  std::vector<double> by_rank =
      TruncatedShapleyFromNeighbors(Train(), neighbors, TestLabel(test, row),
                                    params_.k, KStar(params_.k, params_.epsilon));
  return ScatterByRank(Train().Size(), neighbors, by_rank);
}

// ---------------------------------------------------------------------------
// lsh
// ---------------------------------------------------------------------------

void LshValuator::OnFit() {
  const Dataset& train = Train();
  KNNSHAP_CHECK(train.HasLabels(), "lsh: labeled corpus required");
  KNNSHAP_CHECK(train.Size() >= 2, "lsh: corpus too small");
  corpus_ = train;  // private copy; rescaled by the prep below

  LshCorpusPrep prep = PrepareCorpusForRetrieval(
      &corpus_, params_.k, params_.epsilon, params_.seed, params_.contrast_sample);
  k_star_ = prep.k_star;
  scale_ = prep.scale;
  contrast_ = prep.contrast;
  LshConfig config =
      TuneForPreparedCorpus(corpus_.Size(), prep, params_.delta, params_.seed);
  index_ = std::make_unique<LshIndex>(&corpus_.features, config);
}

std::vector<double> LshValuator::ValueOne(const Dataset& test, size_t row) const {
  auto query = test.features.Row(row);
  // The corpus copy was rescaled; queries arrive in the original space.
  std::vector<float> scaled(query.begin(), query.end());
  for (auto& x : scaled) x = static_cast<float>(x * scale_);
  std::vector<Neighbor> neighbors;
  {
    ScopedPhase span(Phase::kRetrieve);
    neighbors = index_->Query(scaled, static_cast<size_t>(k_star_));
  }
  std::vector<double> by_rank = TruncatedShapleyFromNeighbors(
      corpus_, neighbors, TestLabel(test, row), params_.k, k_star_);
  return ScatterByRank(corpus_.Size(), neighbors, by_rank);
}

void LshValuator::Finalize(std::vector<double>* accumulator,
                           size_t num_queries) const {
  // StreamingValuator materializes values as sums * (1/Q); match that
  // operation order so engine results are bit-identical to the streaming
  // path on the same query sequence.
  const double inv = 1.0 / static_cast<double>(num_queries);
  for (auto& s : *accumulator) s *= inv;
}

// ---------------------------------------------------------------------------
// mc
// ---------------------------------------------------------------------------

void McValuator::OnFit() {
  const bool regression =
      params_.task == KnnTask::kRegression || params_.task == KnnTask::kWeightedRegression;
  KNNSHAP_CHECK(regression ? Train().HasTargets() : Train().HasLabels(),
                "mc: corpus lacks the task's labels/targets");
}

std::vector<double> McValuator::ValueBatch(const Dataset& test) const {
  IncrementalKnnUtility utility(&Train(), &test, params_.k, params_.task,
                                params_.weights, /*owners=*/nullptr, params_.metric);
  ImprovedMcOptions options;
  options.k = params_.k;
  options.epsilon = params_.epsilon;
  options.delta = params_.delta;
  options.utility_range =
      params_.utility_range > 0.0 ? params_.utility_range : 1.0 / params_.k;
  options.seed = params_.seed;
  options.max_permutations = params_.max_permutations;
  return ImprovedMcShapley(&utility, options).shapley;
}

// ---------------------------------------------------------------------------
// weighted-fast
// ---------------------------------------------------------------------------

void WeightedFastValuator::OnFit() {
  KNNSHAP_CHECK(Train().HasLabels(), "weighted-fast: labeled corpus required");
  // The DP consumes the full ranking, and its kernel weights the exact
  // double distances.
  FitRanking(params_.metric, Train().Size());
  // The coalition-weight tables depend only on (N, K); every query on this
  // fitted corpus reuses them, like the ranking itself.
  coalition_ = std::make_unique<WknnCoalitionWeights>(
      static_cast<int>(Train().Size()), params_.k);
}

std::vector<double> WeightedFastValuator::FromRanking(
    std::span<const int> order, std::span<const double> dists,
    const Dataset& test, size_t row) const {
  WknnShapleyOptions options;
  options.k = params_.k;
  options.weights = params_.weights;
  options.metric = params_.metric;
  options.weight_bits = params_.weight_bits;
  options.approx_error = params_.approx_error;
  const WknnQueryContext context = MakeWknnQueryContextFromRanking(
      std::vector<int>(order.begin(), order.end()), dists, Train().labels,
      TestLabel(test, row), options);
  return WknnShapleyFromContext(context, options, coalition_.get());
}

// ---------------------------------------------------------------------------
// weighted
// ---------------------------------------------------------------------------

void WeightedValuator::OnFit() {
  const bool regression = params_.task == KnnTask::kWeightedRegression;
  KNNSHAP_CHECK(regression ? Train().HasTargets() : Train().HasLabels(),
                "weighted: corpus lacks the task's labels/targets");
  // The enumeration reads every rank.
  FitRanking(params_.metric, Train().Size());
}

std::vector<double> WeightedValuator::FromRanking(std::span<const int> order,
                                                  std::span<const double>,
                                                  const Dataset& test,
                                                  size_t row) const {
  WeightedShapleyOptions options;
  options.k = params_.k;
  options.weights = params_.weights;
  options.task = params_.task == KnnTask::kWeightedRegression
                     ? KnnTask::kWeightedRegression
                     : KnnTask::kWeightedClassification;
  options.metric = params_.metric;
  return ExactWeightedKnnShapleyFromOrder(Train(), order, test.features.Row(row),
                                          TestLabel(test, row), TestTarget(test, row),
                                          options);
}

// ---------------------------------------------------------------------------
// regression
// ---------------------------------------------------------------------------

void RegressionValuator::OnFit() {
  KNNSHAP_CHECK(Train().HasTargets(), "regression: corpus targets required");
  FitRanking(params_.metric, Train().Size());
}

std::vector<double> RegressionValuator::FromRanking(std::span<const int> order,
                                                    std::span<const double>,
                                                    const Dataset& test,
                                                    size_t row) const {
  return ExactKnnRegressionShapleyFromOrder(order, Train().targets,
                                            TestTarget(test, row), params_.k);
}

// ---------------------------------------------------------------------------
// registration
// ---------------------------------------------------------------------------

void RegisterBuiltinValuators(ValuatorRegistry* registry) {
  // Each schema declares exactly the ValuatorParams fields the adapter
  // above actually reads — the declaration *is* the cache identity, so an
  // omission here would alias two requests that differ in a field the
  // method honors. tests/schema_test.cpp pins declared-vs-honored
  // behavior per method.
  auto add = [registry](MethodSchema schema, auto make) {
    registry->Register(std::move(schema), make);
  };

  MethodSchema exact;
  exact.name = "exact";
  exact.description =
      "Exact KNN classification SVs, O(N log N)/query (Thm 1, Alg 1)";
  exact.params = ResolveParams({"k", "metric", "approx_error"});
  exact.tasks = {KnnTask::kClassification};
  // approx_error was retrofitted onto this method: omit it from the params
  // echo at its default so existing default-request transcripts stay
  // byte-identical.
  exact.echo_if_nondefault = {"approx_error"};
  exact.approx_bound = [](const ValuatorParams& p, size_t rows) {
    if (p.approx_error <= 0.0) return 0.0;
    return TruncatedExactKnnShapleyBound(
        static_cast<size_t>(KStar(p.k, p.approx_error)), rows);
  };
  add(exact, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<ExactValuator>(p);
  });

  MethodSchema corrected = exact;
  corrected.name = "exact-corrected";
  corrected.description =
      "Exact SVs under the min(K,|S|)-normalized KNN utility (arXiv:2304.04258)";
  corrected.approx_bound = [](const ValuatorParams& p, size_t rows) {
    if (p.approx_error <= 0.0) return 0.0;
    return TruncatedCorrectedKnnShapleyBound(
        static_cast<size_t>(KStar(p.k, p.approx_error)), rows, p.k);
  };
  add(corrected, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<CorrectedValuator>(p);
  });

  MethodSchema truncated;
  truncated.name = "truncated";
  truncated.description =
      "(eps,0)-approx via top-K* truncation (Thm 2)";
  truncated.params = ResolveParams({"k", "epsilon"});  // ranks by L2
  truncated.tasks = {KnnTask::kClassification};
  add(truncated, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<TruncatedValuator>(p);
  });

  MethodSchema lsh;
  lsh.name = "lsh";
  lsh.description =
      "(eps,delta)-approx via contrast-tuned LSH retrieval (Thms 3-4)";
  lsh.params = ResolveParams({"k", "epsilon", "delta", "seed", "contrast_sample"});
  lsh.tasks = {KnnTask::kClassification};
  lsh.min_train_rows = 2;  // contrast estimation needs a pair
  add(lsh, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<LshValuator>(p);
  });

  MethodSchema mc;
  mc.name = "mc";
  mc.description = "Improved Monte-Carlo estimator, any KNN task (Alg 2, Thm 5)";
  mc.params = ResolveParams({"k", "epsilon", "delta", "seed", "metric", "kernel",
                             "kernel_epsilon", "sigma", "utility_range",
                             "max_permutations"});
  mc.tasks = {KnnTask::kClassification, KnnTask::kRegression,
              KnnTask::kWeightedClassification, KnnTask::kWeightedRegression};
  mc.per_query = false;
  add(mc, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<McValuator>(p);
  });

  MethodSchema weighted;
  weighted.name = "weighted";
  weighted.description = "Exact weighted KNN SVs, O(N^K)/query (Thm 7)";
  weighted.params =
      ResolveParams({"k", "metric", "kernel", "kernel_epsilon", "sigma"});
  weighted.tasks = {KnnTask::kWeightedClassification,
                    KnnTask::kWeightedRegression};
  add(weighted, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<WeightedValuator>(p);
  });

  MethodSchema weighted_fast;
  weighted_fast.name = "weighted-fast";
  weighted_fast.description =
      "Discretized weighted KNN SVs, O(N^2)/query (arXiv:2401.11103)";
  weighted_fast.params =
      ResolveParams({"k", "metric", "kernel", "kernel_epsilon", "sigma",
                     "weight_bits", "approx_error"});
  weighted_fast.tasks = {KnnTask::kWeightedClassification};
  // k and weight_bits are individually in range long before their joint
  // count-table footprint explodes; screen the combination against the
  // corpus so an oversized request is a response, not an abort.
  weighted_fast.precondition = [](const ValuatorParams& p, size_t rows) {
    return WknnTableBudget(static_cast<int>(rows), p.k, p.weight_bits);
  };
  add(weighted_fast, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<WeightedFastValuator>(p);
  });

  MethodSchema regression;
  regression.name = "regression";
  regression.description = "Exact unweighted KNN regression SVs (Thm 6)";
  regression.params = ResolveParams({"k", "metric"});
  regression.tasks = {KnnTask::kRegression};
  // Theorem 6's recursion needs N >= K+1; screen k against the corpus so
  // such a request is a response, not an abort.
  regression.precondition = [](const ValuatorParams& p, size_t rows) {
    if (static_cast<size_t>(p.k) < rows) return Status::Ok();
    return Status::InvalidArgument(
        "'k' must be less than the training corpus size for regression "
        "(Theorem 6 needs N >= K+1; got k=" + std::to_string(p.k) + ", " +
            std::to_string(rows) + " rows)",
        "k");
  };
  add(regression, [](const ValuatorParams& p) -> std::unique_ptr<Valuator> {
    return std::make_unique<RegressionValuator>(p);
  });
}

}  // namespace knnshap
