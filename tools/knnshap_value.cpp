// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// knnshap_value — command-line data valuation over CSV feature dumps,
// served through the ValuationEngine (see src/engine/).
//
//   knnshap_value --train=train.csv --test=test.csv --out=values.csv
//                 [--task=classification|regression]
//                 [--method=exact|truncated|lsh|mc|weighted|weighted-fast|
//                  regression]
//                 [--k=5] [--epsilon=0.1] [--delta=0.1] [--weighted]
//                 [--seed=N] [--serial] [--no-cache]
//
// CSV format: one point per row, features first, label/target in the last
// column (a header row is auto-detected). Values are written as
// index,value[,label] rows.
//
//   knnshap_value --methods    lists the registered valuation methods.
//   knnshap_value --describe[=method]
//                              prints each method's declarative schema —
//                              typed hyperparameters with defaults, valid
//                              ranges and docs — generated from the same
//                              MethodSchema the serve pipeline validates
//                              against, so the two surfaces cannot drift.
//   knnshap_value --selftest   exercises the full pipeline on generated
//                              data and exits nonzero on any mismatch.
//
// Hyperparameter flags (--k, --epsilon, --delta, --seed, --metric,
// --kernel, ...) are parsed and validated through the method's schema: an
// out-of-range value answers the identical structured error the serve
// pipeline returns for the same JSON field, naming the offending flag.

#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>

#include "core/exact_knn_shapley.h"
#include "core/wknn_shapley.h"
#include "dataset/io.h"
#include "dataset/synthetic.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "engine/schema.h"
#include "knn/ranking.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/status.h"

using namespace knnshap;

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: knnshap_value --train=T.csv --test=E.csv --out=V.csv\n"
               "       [--task=classification|regression] [--method=exact|"
               "exact-corrected|truncated|lsh|mc|weighted|weighted-fast|"
               "regression]\n"
               "       [--weighted] [--serial] [--no-cache]\n"
               "       [hyperparameter flags per method schema; see --describe]\n"
               "       knnshap_value --methods\n"
               "       knnshap_value --describe[=method]\n"
               "       knnshap_value --selftest\n");
  return 2;
}

/// Structured parameter error: same code/field/message the serve pipeline
/// answers for the identical offense, rendered for stderr.
int ParamError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

/// Resolves the method the flag surface selects: --weighted wins over
/// --method, and --task=regression *without an explicit --method* selects
/// the regression method. This deliberately diverges from the pre-schema
/// dispatch, which silently discarded an explicit --method whenever
/// --task=regression was set: an explicit method is now honored, and an
/// incompatible task answers the structured 'task' error instead.
std::string ResolveMethod(const CommandLine& cli) {
  if (cli.Has("weighted")) return "weighted";
  if (cli.GetString("task", "classification") == "regression" &&
      !cli.Has("method")) {
    return "regression";
  }
  return cli.GetString("method", "exact");
}

/// Maps the CLI surface onto an engine request; hyperparameters are parsed
/// and validated through the method's schema (identical checks — and
/// identical structured errors — to the serve pipeline's JSON fields).
Status BuildRequest(const CommandLine& cli, ValuationRequest* request) {
  // Strict flags, mirroring the serve pipeline's unknown-field rejection:
  // anything that is neither a tool flag nor a schema parameter is a typo
  // answered with the offending name, not silently ignored.
  static const char* kToolFlags[] = {"train",  "test",     "out",   "task",
                                     "method", "weighted", "serial", "no-cache",
                                     "selftest", "methods", "describe", "help"};
  for (const std::string& name : cli.Names()) {
    bool known = FindParamSpec(name) != nullptr;
    for (const char* flag : kToolFlags) known = known || name == flag;
    if (!known) {
      return Status::InvalidArgument(
          "unknown flag '--" + name + "' (see --describe for the schema flags)",
          name);
    }
  }

  request->method = ResolveMethod(cli);
  auto schema = ValuatorRegistry::Global().Schema(request->method);
  if (schema == nullptr) {
    return ValuatorRegistry::Global().UnknownMethodError(request->method);
  }
  // The legacy --weighted flag means "the weighted method with the
  // inverse-distance kernel", and maps --task=classification/regression
  // onto the weighted tasks before the schema validates "task" (the
  // canonical names --task=weighted-* work directly).
  std::string task_override;
  const std::string* override_ptr = nullptr;
  if (cli.Has("weighted")) {
    request->params.weights.kernel = WeightKernel::kInverseDistance;
    const std::string task = cli.GetString("task", "classification");
    if (task == "classification" || task == "regression") {
      task_override = "weighted-" + task;
      override_ptr = &task_override;
    }
  }
  Status status = ApplyCliParams(*schema, cli, &request->params, override_ptr);
  if (!status.ok()) return status;
  request->parallel = !cli.Has("serial");
  request->use_cache = !cli.Has("no-cache");
  return Status::Ok();
}

int ListMethods() {
  std::printf("registered valuation methods:\n");
  for (const auto& info : ValuatorRegistry::Global().Methods()) {
    std::printf("  %-10s  %s\n", info.name.c_str(), info.description.c_str());
  }
  return 0;
}

int DescribeMethods(const CommandLine& cli) {
  auto& registry = ValuatorRegistry::Global();
  const std::string which = cli.GetString("describe", "1");
  if (which != "1") {  // --describe=method
    auto schema = registry.Schema(which);
    if (schema == nullptr) {
      return ParamError(registry.UnknownMethodError(which));
    }
    std::printf("%s", FormatSchemaHelp(*schema).c_str());
    return 0;
  }
  for (const auto& schema : registry.Schemas()) {
    std::printf("%s\n", FormatSchemaHelp(*schema).c_str());
  }
  return 0;
}

int SelfTest() {
  // Generate, save, reload, value with every method, verify agreement.
  Rng rng(5);
  Dataset data = MakeMnistLike(400, &rng);
  Rng srng(6);
  auto split = SplitTrainTest(data, 0.1, &srng);
  std::string dir = "/tmp";
  std::string train_path = dir + "/knnshap_selftest_train.csv";
  std::string test_path = dir + "/knnshap_selftest_test.csv";
  if (!SaveCsvDataset(split.train, train_path) ||
      !SaveCsvDataset(split.test, test_path)) {
    std::fprintf(stderr, "selftest: save failed\n");
    return 1;
  }
  auto train_load = LoadCsvDataset(train_path, CsvTarget::kLabel);
  auto test_load = LoadCsvDataset(test_path, CsvTarget::kLabel);
  if (!train_load.ok() || !test_load.ok() || train_load.rows_skipped ||
      test_load.rows_skipped) {
    std::fprintf(stderr, "selftest: reload failed\n");
    return 1;
  }
  auto train = std::make_shared<const Dataset>(std::move(train_load.data));
  auto test = std::make_shared<const Dataset>(std::move(test_load.data));

  ValuationEngine engine;
  ValuationRequest request;
  request.method = "exact";
  request.params.k = 3;
  request.train = train;
  request.test = test;

  ValuationReport exact = engine.Value(request);
  if (!exact.ok()) {
    std::fprintf(stderr, "selftest: exact failed: %s\n",
                 exact.status.ToString().c_str());
    return 1;
  }
  // Engine output must be bit-identical to the pre-engine entry point.
  std::vector<double> legacy = ExactKnnShapley(*train, *test, 3);
  if (exact.values != legacy) {
    std::fprintf(stderr, "selftest: engine changed exact values\n");
    return 1;
  }
  // float32 round-trip through text: tolerate tiny differences.
  std::vector<double> reference = ExactKnnShapley(split.train, split.test, 3);
  if (MaxAbsDifference(exact.values, reference) > 1e-4) {
    std::fprintf(stderr, "selftest: CSV round-trip changed exact values\n");
    return 1;
  }

  // A repeat of the same request must be a cache hit with bitwise-equal
  // values.
  ValuationReport repeat = engine.Value(request);
  if (!repeat.cache_hit || repeat.values != exact.values) {
    std::fprintf(stderr, "selftest: cache repeat mismatch (hit=%d)\n",
                 repeat.cache_hit ? 1 : 0);
    return 1;
  }

  // Unknown methods are errors, not aborts.
  ValuationRequest bogus = request;
  bogus.method = "not-a-method";
  if (engine.Value(bogus).ok()) {
    std::fprintf(stderr, "selftest: unknown method not rejected\n");
    return 1;
  }

  for (const char* method : {"truncated", "lsh", "mc"}) {
    ValuationRequest approx_request = request;
    approx_request.method = method;
    approx_request.params.seed = std::string(method) == "mc" ? 1 : 7;
    ValuationReport approx = engine.Value(approx_request);
    if (!approx.ok()) {
      std::fprintf(stderr, "selftest: %s failed: %s\n", method,
                   approx.status.ToString().c_str());
      return 1;
    }
    double err = MaxAbsDifference(approx.values, exact.values);
    if (err > 0.12) {  // eps=0.1 plus retrieval slack
      std::fprintf(stderr, "selftest: %s error %.4f exceeds budget\n", method, err);
      return 1;
    }
  }
  // weighted-fast values a different (discretized weighted) game, so it is
  // checked against its own ground truth: the efficiency axiom — values
  // must sum to the mean discretized grand-coalition utility.
  {
    ValuationRequest fast_request = request;
    fast_request.method = "weighted-fast";
    fast_request.params.task = KnnTask::kWeightedClassification;
    fast_request.params.weights.kernel = WeightKernel::kInverseDistance;
    ValuationReport fast = engine.Value(fast_request);
    if (!fast.ok()) {
      std::fprintf(stderr, "selftest: weighted-fast failed: %s\n",
                   fast.status.ToString().c_str());
      return 1;
    }
    WknnShapleyOptions options;
    options.k = fast_request.params.k;
    options.weights = fast_request.params.weights;
    double grand_mean = 0.0;
    std::vector<int> everyone(train->Size());
    std::iota(everyone.begin(), everyone.end(), 0);
    const LocalRanking ranking(&train->features, options.metric);
    for (size_t j = 0; j < test->Size(); ++j) {
      std::vector<double> dists;
      std::vector<int> order;
      ranking.Rank(test->features.Row(j), train->Size(), &dists, &order);
      WknnQueryContext ctx = MakeWknnQueryContextFromRanking(
          std::move(order), dists, train->labels, test->labels[j], options);
      grand_mean += WknnDiscretizedUtility(ctx, everyone, options.k);
    }
    grand_mean /= static_cast<double>(test->Size());
    const double total =
        std::accumulate(fast.values.begin(), fast.values.end(), 0.0);
    if (std::fabs(total - grand_mean) > 1e-9) {
      std::fprintf(stderr,
                   "selftest: weighted-fast efficiency violated "
                   "(total %.12f vs grand %.12f)\n",
                   total, grand_mean);
      return 1;
    }
  }
  std::remove(train_path.c_str());
  std::remove(test_path.c_str());
  CacheCounters counters = engine.CacheStats();
  std::printf("selftest: all methods within budget (cache %llu hit / %llu miss)\n",
              static_cast<unsigned long long>(counters.hits),
              static_cast<unsigned long long>(counters.misses));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  if (cli.Has("selftest")) return SelfTest();
  if (cli.Has("methods")) return ListMethods();
  if (cli.Has("describe") || cli.Has("help")) return DescribeMethods(cli);

  // Hyperparameters are validated before any file I/O, so a bad --epsilon
  // answers its structured error (identical to the serve pipeline's) even
  // when the CSVs do not exist yet.
  ValuationRequest request;
  if (Status status = BuildRequest(cli, &request); !status.ok()) {
    return ParamError(status);
  }

  std::string train_path = cli.GetString("train", "");
  std::string test_path = cli.GetString("test", "");
  std::string out_path = cli.GetString("out", "");
  if (train_path.empty() || test_path.empty() || out_path.empty()) {
    return Usage("--train, --test and --out are required");
  }
  // The CSV target follows the *validated* effective task (so the
  // canonical --task=weighted-regression loads targets exactly like the
  // legacy --weighted --task=regression spelling) — the same derivation
  // the serve pipeline uses for inline query rows.
  const bool regression_task =
      request.params.task == KnnTask::kRegression ||
      request.params.task == KnnTask::kWeightedRegression;
  CsvTarget target = regression_task ? CsvTarget::kTarget : CsvTarget::kLabel;

  auto train_load = LoadCsvDataset(train_path, target);
  if (!train_load.ok()) return ParamError(train_load.status);
  auto test_load = LoadCsvDataset(test_path, target);
  if (!test_load.ok()) return ParamError(test_load.status);
  std::printf("train: %zu rows (%zu skipped), test: %zu rows, dim %zu\n",
              train_load.rows_parsed, train_load.rows_skipped, test_load.rows_parsed,
              train_load.data.Dim());

  request.train = std::make_shared<const Dataset>(std::move(train_load.data));
  request.test = std::make_shared<const Dataset>(std::move(test_load.data));

  ValuationEngine engine;
  ValuationReport report = engine.Value(request);
  if (!report.ok()) return ParamError(report.status);
  std::printf("%s\n", report.FormatStatusLine().c_str());

  if (!SaveValuesCsv(report.values, *request.train, out_path)) {
    return Usage(("cannot write " + out_path).c_str());
  }
  double total =
      std::accumulate(report.values.begin(), report.values.end(), 0.0);
  std::printf("wrote %s (sum of values = %.6f)\n", out_path.c_str(), total);
  return 0;
}
