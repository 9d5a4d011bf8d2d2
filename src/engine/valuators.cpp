// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "engine/valuators.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/corrected_knn_shapley.h"
#include "core/exact_knn_shapley.h"
#include "core/improved_mc.h"
#include "core/knn_regression_shapley.h"
#include "core/lsh_knn_shapley.h"
#include "core/weighted_knn_shapley.h"
#include "engine/registry.h"
#include "knn/metric.h"
#include "knn/weights.h"
#include "obs/trace.h"
#include "shard/shard_ranking.h"
#include "util/cancel.h"
#include "util/common.h"

namespace knnshap {

namespace {

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

void RankedValuator::ValueOne(const Dataset& test, size_t row,
                              QueryValues* out) const {
  out->label = TestLabel(test, row);
  if (depth_ == 0) return FromRanking({}, test, row, out);
  // Per-thread scratch: the engine drives many queries per pool thread,
  // and the N-row buffer would otherwise be reallocated per query.
  static thread_local std::vector<double> dists;
  const bool ranked =
      ranking_->Rank(test.features.Row(row), depth_, &dists, &out->order);
  // A fired deadline or a failed shard fan-out (Health() latched) leaves
  // the query empty; the engine discards the request either way.
  if (CancelRequested() || !ranked) return out->Clear();
  FromRanking(dists, test, row, out);
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
  const size_t depth =
      params_.approx_error > 0.0
          ? TruncatedExactEffectiveRank(
                static_cast<size_t>(KStar(params_.k, params_.approx_error)), n,
                params_.k)
          : n;
  FitRanking(params_.metric, depth);
  if (depth >= n) {
    steps_ = ExactKnnShapleySteps(n, params_.k);
    fold_labels_ = std::make_unique<FoldLabels>(Train().labels);
  }
}

void ExactValuator::FromRanking(std::span<const double>, const Dataset&, size_t,
                                QueryValues*) const {
  // The order and the label are all MergeInto needs.
}

void ExactValuator::MergeInto(std::vector<double>* accumulator,
                              const QueryValues& one_query) const {
  const std::vector<int>& labels = Train().labels;
  if (one_query.order.empty()) return;
  if (one_query.order.size() == labels.size()) {
    FoldExactKnnShapley(one_query.order, *fold_labels_, one_query.label,
                        params_.k, steps_, *accumulator);
  } else {
    FoldTruncatedExactKnnShapley(one_query.order, labels, one_query.label,
                                 params_.k, *accumulator);
  }
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
  if (depth >= n) {
    steps_ = CorrectedKnnShapleySteps(n, params_.k);
    fold_labels_ = std::make_unique<FoldLabels>(Train().labels);
  }
}

void CorrectedValuator::FromRanking(std::span<const double>, const Dataset&,
                                    size_t, QueryValues* out) const {
  // The full order folds in rank space (MergeInto); a truncated prefix
  // values every row, so it goes dense.
  const std::vector<int>& labels = Train().labels;
  if (out->order.size() == labels.size()) return;
  out->values = TruncatedCorrectedKnnShapleyFromOrder(out->order, labels,
                                                      out->label, params_.k);
  out->order.clear();
}

void CorrectedValuator::MergeInto(std::vector<double>* accumulator,
                                  const QueryValues& one_query) const {
  if (one_query.order.empty()) return Valuator::MergeInto(accumulator, one_query);
  FoldCorrectedKnnShapley(one_query.order, *fold_labels_, one_query.label,
                          params_.k, steps_, *accumulator);
}

void TruncatedValuator::OnFit() {
  KNNSHAP_CHECK(Train().HasLabels(), "truncated: labeled corpus required");
  FitRanking(Metric::kL2, static_cast<size_t>(KStar(params_.k, params_.epsilon)));
}

void TruncatedValuator::FromRanking(std::span<const double> dists, const Dataset&,
                                    size_t, QueryValues* out) const {
  std::vector<Neighbor> neighbors;
  neighbors.reserve(out->order.size());
  for (int i : out->order) neighbors.push_back({i, dists[static_cast<size_t>(i)]});
  out->values = TruncatedShapleyFromNeighbors(Train(), neighbors, out->label,
                                              params_.k,
                                              KStar(params_.k, params_.epsilon));
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

void LshValuator::ValueOne(const Dataset& test, size_t row, QueryValues* out) const {
  auto query = test.features.Row(row);
  // The corpus copy was rescaled; queries arrive in the original space.
  std::vector<float> scaled(query.begin(), query.end());
  for (auto& x : scaled) x = static_cast<float>(x * scale_);
  std::vector<Neighbor> neighbors;
  {
    ScopedPhase span(Phase::kRetrieve);
    neighbors = index_->Query(scaled, static_cast<size_t>(k_star_));
  }
  out->values = TruncatedShapleyFromNeighbors(corpus_, neighbors,
                                              TestLabel(test, row), params_.k,
                                              k_star_);
  out->order.resize(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) out->order[i] = neighbors[i].index;
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

void WeightedFastValuator::FromRanking(std::span<const double> dists,
                                       const Dataset&, size_t,
                                       QueryValues* out) const {
  WknnShapleyOptions options;
  options.k = params_.k;
  options.weights = params_.weights;
  options.metric = params_.metric;
  options.weight_bits = params_.weight_bits;
  options.approx_error = params_.approx_error;
  const WknnQueryContext context = MakeWknnQueryContextFromRanking(
      std::move(out->order), dists, Train().labels, out->label, options);
  out->order.clear();
  out->values = WknnShapleyFromContext(context, options, coalition_.get());
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

void WeightedValuator::FromRanking(std::span<const double>, const Dataset& test,
                                   size_t row, QueryValues* out) const {
  WeightedShapleyOptions options;
  options.k = params_.k;
  options.weights = params_.weights;
  options.task = params_.task == KnnTask::kWeightedRegression
                     ? KnnTask::kWeightedRegression
                     : KnnTask::kWeightedClassification;
  options.metric = params_.metric;
  out->values = ExactWeightedKnnShapleyFromOrder(
      Train(), out->order, test.features.Row(row), out->label,
      TestTarget(test, row), options);
  out->order.clear();
}

// ---------------------------------------------------------------------------
// regression
// ---------------------------------------------------------------------------

void RegressionValuator::OnFit() {
  KNNSHAP_CHECK(Train().HasTargets(), "regression: corpus targets required");
  FitRanking(params_.metric, Train().Size());
}

void RegressionValuator::FromRanking(std::span<const double>, const Dataset& test,
                                     size_t row, QueryValues* out) const {
  out->values = ExactKnnRegressionShapleyFromOrder(
      out->order, Train().targets, TestTarget(test, row), params_.k);
  out->order.clear();
}

// ---------------------------------------------------------------------------
// registration
// ---------------------------------------------------------------------------

namespace {

// The weighted tasks normalize the kernel weights of coalitions as small
// as one row (ComputeWeights), and a Gaussian weight exp(-d^2/(2 sigma^2))
// underflows to 0 once d passes about 38.6 sigma. A weight only falls as
// the distance grows, so if every query's farthest training row keeps a
// nonzero weight, so does every coalition. The distances are the ones the
// utilities compute (TopKAmongRows).
Status GaussianWeightsPrecondition(const ValuatorParams& p, const Dataset& train,
                                   const Dataset& test) {
  if (p.weights.kernel != WeightKernel::kGaussian ||
      (p.task != KnnTask::kWeightedClassification &&
       p.task != KnnTask::kWeightedRegression)) {
    return Status::Ok();
  }
  for (size_t q = 0; q < test.Size(); ++q) {
    double farthest = 0.0;
    for (size_t r = 0; r < train.Size(); ++r) {
      farthest = std::max(farthest, std::fabs(internal::DistanceUnchecked(
                                        train.features.Row(r).data(),
                                        test.features.Row(q).data(), train.Dim(),
                                        p.metric)));
    }
    if (RawKernelWeight(farthest, p.weights) == 0.0) {
      return Status::InvalidArgument(
          "'sigma' is too small for this data: the Gaussian weight of query " +
              std::to_string(q) +
              "'s farthest training row underflows to 0, so its coalitions "
              "have no weight to normalize; raise 'sigma' or use another kernel",
          "sigma");
    }
  }
  return Status::Ok();
}

}  // namespace

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
  mc.precondition = GaussianWeightsPrecondition;
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
  weighted.precondition = GaussianWeightsPrecondition;
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
  weighted_fast.precondition = [](const ValuatorParams& p, const Dataset& train,
                                  const Dataset&) {
    return WknnTableBudget(static_cast<int>(train.Size()), p.k, p.weight_bits);
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
  regression.precondition = [](const ValuatorParams& p, const Dataset& train,
                               const Dataset&) {
    const size_t rows = train.Size();
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
