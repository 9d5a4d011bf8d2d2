// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// WKNN-Shapley (arXiv:2401.11103) vs the O(N^K) Theorem-7 recursion: the
// quadratic counting algorithm must dominate the exact weighted method at
// every feasible shape, agree with it within the discretization bound, and
// scale to corpora Theorem 7 cannot touch via the deterministic truncation.
//
//   bench_wknn                    # full run (results land in BENCH_wknn.json)
//   bench_wknn --smoke            # CI-sized run
//   bench_wknn --json=out.json    # result path

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/weighted_knn_shapley.h"
#include "core/wknn_shapley.h"
#include "dataset/synthetic.h"
#include "knn/ranking.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace knnshap;

namespace {

struct HeadToHead {
  size_t n = 0;
  int k = 0;
  double weighted_s = 0.0;
  double fast_s = 0.0;
  double speedup = 0.0;
  double gap = 0.0;    // max |weighted - weighted-fast|
  double bound = 0.0;  // discretization bound (max over queries)
};

HeadToHead RunHeadToHead(size_t n, int k, int bits, const Dataset& test) {
  Rng rng(91);
  Dataset train = MakeDogFishLike(n, &rng);

  WeightedShapleyOptions exact_options;
  exact_options.k = k;
  exact_options.weights.kernel = WeightKernel::kInverseDistance;
  exact_options.task = KnnTask::kWeightedClassification;
  WallTimer exact_timer;
  std::vector<double> exact_sv =
      ExactWeightedKnnShapley(train, test, exact_options, /*parallel=*/false);
  const double exact_s = exact_timer.Seconds();

  WknnShapleyOptions fast_options;
  fast_options.k = k;
  fast_options.weight_bits = bits;
  fast_options.weights.kernel = WeightKernel::kInverseDistance;
  WallTimer fast_timer;
  std::vector<double> fast_sv =
      WknnShapley(train, test, fast_options, /*parallel=*/false);
  const double fast_s = fast_timer.Seconds();

  double bound = 0.0;
  const LocalRanking ranking(&train.features, fast_options.metric);
  for (size_t j = 0; j < test.Size(); ++j) {
    std::vector<double> dists;
    std::vector<int> order;
    ranking.Rank(test.features.Row(j), train.Size(), &dists, &order);
    WknnQueryContext ctx = MakeWknnQueryContextFromRanking(
        std::move(order), dists, train.labels, test.labels[j], fast_options);
    bound = std::max(bound, WknnDiscretizationBound(ctx, k));
  }

  HeadToHead result;
  result.n = n;
  result.k = k;
  result.weighted_s = exact_s;
  result.fast_s = fast_s;
  result.speedup = exact_s / fast_s;
  result.gap = MaxAbsDifference(exact_sv, fast_sv);
  result.bound = bound;
  return result;
}

struct Truncation {
  size_t n = 0;
  double exact_s = 0.0;
  double approx_s = 0.0;
  double speedup = 0.0;
  double budget = 0.0;
  double observed = 0.0;  // max |exact - approx|, must be <= budget
  int rank = 0;           // truncation rank q*
};

Truncation RunTruncation(size_t n, int k, double budget, const Dataset& test) {
  Rng rng(92);
  Dataset train = MakeDogFishLike(n, &rng);
  WknnShapleyOptions options;
  options.k = k;
  options.weights.kernel = WeightKernel::kInverseDistance;

  WallTimer exact_timer;
  std::vector<double> exact_sv =
      WknnShapley(train, test, options, /*parallel=*/false);
  const double exact_s = exact_timer.Seconds();

  options.approx_error = budget;
  WallTimer approx_timer;
  std::vector<double> approx_sv =
      WknnShapley(train, test, options, /*parallel=*/false);
  const double approx_s = approx_timer.Seconds();

  Truncation result;
  result.n = n;
  result.exact_s = exact_s;
  result.approx_s = approx_s;
  result.speedup = exact_s / approx_s;
  result.budget = budget;
  result.observed = MaxAbsDifference(exact_sv, approx_sv);
  result.rank =
      WknnCoalitionWeights(static_cast<int>(n), k).TruncationRank(budget);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const bool smoke = cli.Has("smoke");
  const std::string json_path = cli.GetString("json", "BENCH_wknn.json");
  const int bits = cli.GetInt("weight_bits", 3);
  const double budget = cli.GetDouble("approx_error", 0.01);

  bench::Banner(
      "bench_wknn — weighted-fast (arXiv:2401.11103) vs weighted (Thm 7)",
      "the quadratic recursion replaces O(N^K) at >=10x at the largest "
      "feasible Theorem-7 shape and scales beyond it via truncation");

  Rng trng(90);
  Dataset test = MakeDogFishLike(4, &trng);

  bench::Row("(a) head-to-head vs the O(N^K) exact weighted method, b = %d\n",
             bits);
  bench::Row("%8s %4s %14s %14s %10s %14s %14s\n", "N", "K", "weighted(s)",
             "fast(s)", "speedup", "max gap", "disc bound");
  std::vector<HeadToHead> head;
  const std::vector<std::pair<size_t, int>> shapes =
      smoke ? std::vector<std::pair<size_t, int>>{{60, 2}, {80, 3}}
            : std::vector<std::pair<size_t, int>>{
                  {100, 2}, {200, 2}, {100, 3}, {140, 3}, {200, 3}};
  for (auto [n, k] : shapes) {
    HeadToHead r = RunHeadToHead(n, k, bits, test);
    head.push_back(r);
    bench::Row("%8zu %4d %14.3f %14.3f %9.1fx %14.5f %14.5f\n", r.n, r.k,
               r.weighted_s, r.fast_s, r.speedup, r.gap, r.bound);
  }
  const HeadToHead& largest = head.back();

  bench::Row("\n(b) deterministic truncation at budget %.3g (K = 3), exact "
             "weighted infeasible here\n",
             budget);
  bench::Row("%8s %12s %12s %10s %8s %14s\n", "N", "exact(s)", "approx(s)",
             "speedup", "q*", "observed err");
  std::vector<Truncation> trunc;
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{500} : std::vector<size_t>{1000, 2000};
  for (size_t n : sizes) {
    Truncation r = RunTruncation(n, 3, budget, test);
    trunc.push_back(r);
    bench::Row("%8zu %12.3f %12.3f %9.1fx %8d %14.6f\n", r.n, r.exact_s,
               r.approx_s, r.speedup, r.rank, r.observed);
  }

  bool ok = largest.speedup >= 10.0 && largest.gap <= largest.bound + 1e-12;
  for (const Truncation& r : trunc) ok = ok && r.observed <= r.budget + 1e-12;
  bench::Row("\n%s: fast %.1fx over weighted at N=%zu K=%d (gap %.5f <= "
             "bound %.5f)\n",
             ok ? "OK" : "FAIL", largest.speedup, largest.n, largest.k,
             largest.gap, largest.bound);

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"wknn\",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"weight_bits\": %d,\n", bits);
  std::fprintf(json, "  \"queries\": %zu,\n", test.Size());
  std::fprintf(json, "  \"head_to_head\": [\n");
  for (size_t i = 0; i < head.size(); ++i) {
    const HeadToHead& r = head[i];
    std::fprintf(json,
                 "    {\"n\": %zu, \"k\": %d, \"weighted_seconds\": %.4f, "
                 "\"fast_seconds\": %.4f, \"speedup\": %.1f, \"max_gap\": "
                 "%.6f, \"discretization_bound\": %.6f}%s\n",
                 r.n, r.k, r.weighted_s, r.fast_s, r.speedup, r.gap, r.bound,
                 i + 1 < head.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"speedup_over_weighted_at_largest_shape\": %.1f,\n",
               largest.speedup);
  std::fprintf(json, "  \"largest_shape\": {\"n\": %zu, \"k\": %d},\n",
               largest.n, largest.k);
  std::fprintf(json, "  \"gap_within_discretization_bound\": %s,\n",
               largest.gap <= largest.bound + 1e-12 ? "true" : "false");
  std::fprintf(json, "  \"truncation\": [\n");
  for (size_t i = 0; i < trunc.size(); ++i) {
    const Truncation& r = trunc[i];
    std::fprintf(json,
                 "    {\"n\": %zu, \"budget\": %.4g, \"exact_seconds\": %.4f, "
                 "\"approx_seconds\": %.4f, \"speedup\": %.1f, "
                 "\"truncation_rank\": %d, \"observed_error\": %.6f}%s\n",
                 r.n, r.budget, r.exact_s, r.approx_s, r.speedup, r.rank,
                 r.observed, i + 1 < trunc.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"ok\": %s\n", ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}
