// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Kernel benchmark: the pre-kernel scalar distance path (per-pair
// Distance() calls + comparator argsort — exactly what AllDistances /
// ArgsortByDistance compiled to before the batched kernel subsystem)
// against the new batched kernels, per distance kernel (blocked fallback
// and, when the CPU supports it, AVX2/FMA), plus the packed-key argsort
// against the indirect comparator std::sort. Seeds the perf trajectory:
// results land in BENCH_kernel.json.
//
// Usage:
//   bench_kernel                   # full grid (N up to 1M rows; minutes)
//   bench_kernel --smoke           # tiny grid for CI (seconds)
//   bench_kernel --json=out.json   # result path (default BENCH_kernel.json)
//
// Modes reported per (N, d, metric):
//   scalar_per_query_ms    old path: per-pair Distance() over all rows
//   kernel_ms[kind]        batched ComputeDistances with fitted norms
//   batch_kernel_ms[kind]  ComputeDistanceMatrix amortized per query
//                          (the engine's many-queries-per-corpus shape)
//   speedup[kind]          scalar / batch-kernel per-query time
//
// A second "selection" grid times the two end-to-end single-query paths the
// exact valuators actually run — distance pass + full packed argsort
// (ArgsortByDistanceInto) versus distance pass + streaming top-R selection
// (TopROrderByDistance, the approx_error path at R = K*(k, 1e-3)) — at
// corpus sizes up to 10M rows, where the argsort dominates the query. A
// third "sort" grid times the full argsort alone at N = 200k, 1M and 10M:
// the radix ArgsortDistances against the indirect comparator std::sort. A
// fourth "crossover" grid times the two paths PartialArgsortDistances picks
// between — internal::TopRHeap against the full ArgsortDistances — at
// r = n/64, n/32, n/16 and n/8 for N = 100k and 1M: the record behind
// internal::kHeapRankDivisor (the heap runs while r <= n/32).
// In --smoke mode the selection and sort arms double as perf regression
// gates: the process exits nonzero if the select path is slower than the
// argsort path at N=100k, or the radix argsort is slower than the
// comparator sort at N=200k.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "knn/distance_kernel.h"
#include "knn/metric.h"
#include "knn/neighbors.h"
#include "knn/selection.h"
#include "util/random.h"

using namespace knnshap;

namespace {

struct GridPoint {
  size_t n;
  size_t d;
};

struct ModeResult {
  double kernel_ms = 0.0;        // single-query batched pass
  double batch_kernel_ms = 0.0;  // per-query cost inside a query block
  double argsort_ms = 0.0;       // packed-key argsort (distances precomputed)
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    auto row = m.MutableRow(i);
    for (auto& x : row) x = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

// Old scalar path: per-pair Distance() (one KNNSHAP_CHECK + switch per
// row), serial double accumulation.
double TimeScalar(const Matrix& corpus, const Matrix& queries, Metric metric,
                  std::vector<double>* dists) {
  WallTimer timer;
  for (size_t j = 0; j < queries.Rows(); ++j) {
    auto query = queries.Row(j);
    for (size_t i = 0; i < corpus.Rows(); ++i) {
      (*dists)[i] = Distance(corpus.Row(i), query, metric);
    }
  }
  return timer.Millis() / static_cast<double>(queries.Rows());
}

// Old ordering: indirect comparator std::sort over row indices.
double TimeComparatorArgsort(const std::vector<double>& dists, size_t repeats) {
  std::vector<int> order(dists.size());
  WallTimer timer;
  for (size_t r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&dists](int a, int b) {
      double da = dists[static_cast<size_t>(a)];
      double db = dists[static_cast<size_t>(b)];
      if (da != db) return da < db;
      return a < b;
    });
  }
  return timer.Millis() / static_cast<double>(repeats);
}

struct SortResult {
  double comparator_ms = 0.0;
  double radix_ms = 0.0;
};

// One query's squared-L2 distances to a 16-dim Gaussian corpus
// (chi-square shaped, like the serve workloads).
std::vector<double> ChiSquareDistances(size_t n) {
  Rng rng(41);
  std::vector<double> dists(n);
  for (auto& x : dists) {
    double sum = 0.0;
    for (int d = 0; d < 16; ++d) {
      const double g = static_cast<double>(static_cast<float>(rng.NextGaussian()));
      sum += g * g;
    }
    x = sum;
  }
  return dists;
}

// Median wall time of `repeats` calls, in ms: the crossover rows compare
// two close timings, so one slow call must not move either.
double MedianMs(size_t repeats, const std::function<void()>& call) {
  std::vector<double> ms(repeats);
  for (double& m : ms) {
    WallTimer timer;
    call();
    m = timer.Millis();
  }
  std::nth_element(ms.begin(), ms.begin() + static_cast<long>(repeats / 2),
                   ms.end());
  return ms[repeats / 2];
}

// Full argsort of ChiSquareDistances(n), timed both ways.
SortResult TimeSorts(size_t n, size_t repeats) {
  const std::vector<double> dists = ChiSquareDistances(n);
  SortResult result;
  result.comparator_ms = TimeComparatorArgsort(dists, repeats);
  std::vector<int> radix;
  WallTimer timer;
  for (size_t r = 0; r < repeats; ++r) ArgsortDistances(dists, &radix);
  result.radix_ms = timer.Millis() / static_cast<double>(repeats);
  return result;
}

// End-to-end per-query time of the full-argsort valuation prologue:
// batched distance pass + complete packed-key rank order.
double TimeArgsortPath(const Matrix& corpus, const CorpusNorms& norms,
                       const Matrix& queries, Metric metric) {
  std::vector<int> order;
  WallTimer timer;
  for (size_t j = 0; j < queries.Rows(); ++j) {
    ArgsortByDistanceInto(corpus, queries.Row(j), metric, &norms, &order);
  }
  return timer.Millis() / static_cast<double>(queries.Rows());
}

// End-to-end per-query time of the truncated prologue: batched distance
// pass + streaming top-R selection (the approx_error > 0 path).
double TimeSelectPath(const Matrix& corpus, const CorpusNorms& norms,
                      const Matrix& queries, Metric metric, size_t r) {
  std::vector<int> order;
  WallTimer timer;
  for (size_t j = 0; j < queries.Rows(); ++j) {
    TopROrderByDistance(corpus, queries.Row(j), r, metric, &norms, &order);
  }
  return timer.Millis() / static_cast<double>(queries.Rows());
}

ModeResult TimeKernel(const Matrix& corpus, const Matrix& queries, Metric metric,
                      KernelKind kind, size_t argsort_repeats) {
  SetKernelOverride(kind);
  const CorpusNorms norms(corpus);  // fitted once, like the engine valuators
  std::vector<double> dists(corpus.Rows());
  ModeResult result;
  {
    WallTimer timer;
    for (size_t j = 0; j < queries.Rows(); ++j) {
      ComputeDistances(corpus, queries.Row(j), metric, &norms, dists);
    }
    result.kernel_ms = timer.Millis() / static_cast<double>(queries.Rows());
  }
  {
    std::vector<double> matrix(corpus.Rows() * queries.Rows());
    WallTimer timer;
    ComputeDistanceMatrix(corpus, queries, metric, &norms, matrix);
    result.batch_kernel_ms = timer.Millis() / static_cast<double>(queries.Rows());
  }
  {
    std::vector<int> order;
    WallTimer timer;
    for (size_t r = 0; r < argsort_repeats; ++r) ArgsortDistances(dists, &order);
    result.argsort_ms = timer.Millis() / static_cast<double>(argsort_repeats);
  }
  SetKernelOverride(KernelKind::kAuto);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const bool smoke = cli.Has("smoke");
  const std::string json_path = cli.GetString("json", "BENCH_kernel.json");
  const size_t num_queries = static_cast<size_t>(cli.GetInt("queries", smoke ? 4 : 8));

  bench::Banner("BENCH kernel — batched SIMD distance kernels vs scalar path",
                "batched kernel >= 3x over per-pair scalar at N=100k d=128 "
                "(squared-l2, fallback path)");

  std::vector<GridPoint> grid;
  if (smoke) {
    grid = {{2000, 16}, {1000, 1}, {1500, 17}};
  } else {
    grid = {{100000, 16}, {100000, 128}, {100000, 784}, {1000000, 16}};
  }
  std::vector<Metric> metrics = {Metric::kSquaredL2};
  if (!smoke) metrics.push_back(Metric::kL2);

  std::vector<KernelKind> kinds = {KernelKind::kBlocked};
  if (CpuSupportsAvx2Fma()) kinds.push_back(KernelKind::kAvx2);

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"kernel\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(json, "  \"queries\": %zu,\n  \"cpu_avx2_fma\": %s,\n",
               num_queries, CpuSupportsAvx2Fma() ? "true" : "false");
  std::fprintf(json, "  \"results\": [\n");

  bool first = true;
  for (const GridPoint& g : grid) {
    Matrix corpus = RandomMatrix(g.n, g.d, /*seed=*/17);
    Matrix queries = RandomMatrix(num_queries, g.d, /*seed=*/29);
    const size_t argsort_repeats = smoke ? 3 : (g.n >= 1000000 ? 3 : 10);
    for (Metric metric : metrics) {
      std::vector<double> dists(g.n);
      SetKernelOverride(KernelKind::kReference);
      double scalar_ms = TimeScalar(corpus, queries, metric, &dists);
      double comparator_sort_ms = TimeComparatorArgsort(dists, argsort_repeats);
      SetKernelOverride(KernelKind::kAuto);

      bench::Row("N=%-8zu d=%-4zu %-10s scalar %9.3f ms/query  cmp-sort %8.3f ms\n",
                 g.n, g.d, MetricName(metric), scalar_ms, comparator_sort_ms);

      if (!first) std::fprintf(json, ",\n");
      first = false;
      std::fprintf(json,
                   "    {\"n\": %zu, \"d\": %zu, \"metric\": \"%s\",\n"
                   "     \"scalar_per_query_ms\": %.4f,\n"
                   "     \"comparator_argsort_ms\": %.4f",
                   g.n, g.d, MetricName(metric), scalar_ms, comparator_sort_ms);

      for (KernelKind kind : kinds) {
        ModeResult r = TimeKernel(corpus, queries, metric, kind, argsort_repeats);
        double speedup = r.batch_kernel_ms > 0.0 ? scalar_ms / r.batch_kernel_ms : 0.0;
        double single_speedup = r.kernel_ms > 0.0 ? scalar_ms / r.kernel_ms : 0.0;
        bench::Row(
            "    %-9s kernel %9.3f ms/query (%.2fx)  batched %9.3f ms/query "
            "(%.2fx)  packed-sort %8.3f ms\n",
            KernelName(kind), r.kernel_ms, single_speedup, r.batch_kernel_ms,
            speedup, r.argsort_ms);
        std::fprintf(json,
                     ",\n     \"%s\": {\"kernel_ms\": %.4f, \"batch_kernel_ms\": "
                     "%.4f, \"packed_argsort_ms\": %.4f, \"speedup_vs_scalar\": "
                     "%.2f, \"batch_speedup_vs_scalar\": %.2f}",
                     KernelName(kind), r.kernel_ms, r.batch_kernel_ms, r.argsort_ms,
                     single_speedup, speedup);
      }
      std::fprintf(json, "}");
    }
  }
  std::fprintf(json, "\n  ],\n");

  // Selection grid: end-to-end single-query prologue, argsort vs top-R.
  // R = 1000 = K*(k, eps) at the paper's eps = 1e-3 working point.
  const size_t select_r = 1000;
  std::vector<GridPoint> select_grid;
  if (smoke) {
    select_grid = {{100000, 16}};
  } else {
    select_grid = {{100000, 16}, {1000000, 16}, {10000000, 16}, {10000000, 8}};
  }
  std::fprintf(json, "  \"selection\": [\n");
  bool select_ok = true;
  first = true;
  for (const GridPoint& g : select_grid) {
    Matrix corpus = RandomMatrix(g.n, g.d, /*seed=*/17);
    Matrix queries = RandomMatrix(smoke ? 2 : 4, g.d, /*seed=*/29);
    const CorpusNorms norms(corpus);
    const Metric metric = Metric::kSquaredL2;
    const double argsort_ms = TimeArgsortPath(corpus, norms, queries, metric);
    const double select_ms =
        TimeSelectPath(corpus, norms, queries, metric, select_r);
    const double cut = select_ms > 0.0 ? argsort_ms / select_ms : 0.0;
    bench::Row(
        "N=%-8zu d=%-4zu r=%-5zu argsort-path %9.3f ms/query  "
        "select-path %9.3f ms/query  (%.2fx)\n",
        g.n, g.d, select_r, argsort_ms, select_ms, cut);
    if (!first) std::fprintf(json, ",\n");
    first = false;
    std::fprintf(json,
                 "    {\"n\": %zu, \"d\": %zu, \"r\": %zu, "
                 "\"argsort_path_per_query_ms\": %.4f, "
                 "\"select_path_per_query_ms\": %.4f, "
                 "\"end_to_end_cut\": %.2f}",
                 g.n, g.d, select_r, argsort_ms, select_ms, cut);
    if (smoke && select_ms > argsort_ms) select_ok = false;
  }
  std::fprintf(json, "\n  ],\n");

  // Sort grid: the full argsort alone, radix against the comparator sort.
  std::vector<size_t> sort_grid = {200000};
  if (!smoke) sort_grid = {200000, 1000000, 10000000};
  std::fprintf(json, "  \"sort\": [\n");
  bool sort_ok = true;
  first = true;
  for (size_t n : sort_grid) {
    const size_t repeats = smoke ? 3 : (n >= 10000000 ? 1 : (n >= 1000000 ? 3 : 10));
    const SortResult r = TimeSorts(n, repeats);
    const double speedup = r.radix_ms > 0.0 ? r.comparator_ms / r.radix_ms : 0.0;
    bench::Row("N=%-8zu cmp-sort %9.3f ms  radix %9.3f ms  (%.2fx)\n", n,
               r.comparator_ms, r.radix_ms, speedup);
    if (!first) std::fprintf(json, ",\n");
    first = false;
    std::fprintf(json,
                 "    {\"n\": %zu, \"comparator_argsort_ms\": %.4f, "
                 "\"radix_argsort_ms\": %.4f, \"speedup_vs_comparator\": %.2f}",
                 n, r.comparator_ms, r.radix_ms, speedup);
    if (smoke && r.radix_ms > r.comparator_ms) sort_ok = false;
  }
  std::fprintf(json, "\n  ],\n");

  // Crossover grid: the heap against the argsort it hands over to.
  std::vector<size_t> crossover_grid = {100000};
  if (!smoke) crossover_grid = {100000, 1000000};
  std::fprintf(json, "  \"crossover\": [\n");
  first = true;
  for (size_t n : crossover_grid) {
    const std::vector<double> dists = ChiSquareDistances(n);
    const size_t repeats = smoke ? 3 : (n >= 1000000 ? 9 : 31);
    std::vector<int> order;
    const double argsort_ms =
        MedianMs(repeats, [&] { ArgsortDistances(dists, &order); });
    for (size_t divisor : {64, 32, 16, 8}) {
      const size_t r = n / divisor;
      const double heap_ms =
          MedianMs(repeats, [&] { internal::TopRHeap(dists, r, &order); });
      const double ratio = argsort_ms > 0.0 ? heap_ms / argsort_ms : 0.0;
      bench::Row("N=%-8zu r=n/%-3zu heap %9.3f ms  argsort %9.3f ms  (%.2fx)\n",
                 n, divisor, heap_ms, argsort_ms, ratio);
      if (!first) std::fprintf(json, ",\n");
      first = false;
      std::fprintf(json,
                   "    {\"n\": %zu, \"r\": %zu, \"r_divisor\": %zu, "
                   "\"heap_ms\": %.4f, \"argsort_ms\": %.4f, "
                   "\"heap_over_argsort\": %.2f}",
                   n, r, divisor, heap_ms, argsort_ms, ratio);
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  bench::Row("wrote %s\n", json_path.c_str());
  if (!select_ok) {
    std::fprintf(stderr,
                 "FAIL: select path slower than argsort path in smoke gate\n");
    return 1;
  }
  if (!sort_ok) {
    std::fprintf(stderr,
                 "FAIL: radix argsort slower than comparator sort in smoke "
                 "gate\n");
    return 1;
  }
  return 0;
}
