// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Parity and edge-case suite for the batched distance kernels
// (knn/distance_kernel.h). The fast paths are gated on this suite: the
// blocked and (when supported) AVX2 kernels must produce the identical
// neighbor *rank order* as the scalar reference on fixed-seed fixtures for
// all four metrics, and every engine method's values must stay within
// 1e-9 of the reference-kernel values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <vector>

#include "engine/registry.h"
#include "knn/distance_kernel.h"
#include "knn/kd_tree.h"
#include "knn/metric.h"
#include "knn/neighbors.h"
#include "test_util.h"
#include "util/bounded_heap.h"
#include "util/random.h"

namespace knnshap {
namespace {

using testing_util::RandomClassDataset;

// Every test must leave the process-wide kernel selection untouched.
class KernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetKernelOverride(KernelKind::kAuto); }

  static std::vector<KernelKind> FastKernels() {
    std::vector<KernelKind> kinds = {KernelKind::kBlocked};
    if (CpuSupportsAvx2Fma()) kinds.push_back(KernelKind::kAvx2);
    return kinds;
  }

  static constexpr Metric kAllMetrics[] = {Metric::kSquaredL2, Metric::kL2,
                                           Metric::kL1, Metric::kCosine};
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
  }
  return m;
}

std::vector<float> RandomQuery(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> q(dim);
  for (auto& c : q) c = static_cast<float>(rng.NextGaussian());
  return q;
}

// ------------------------------------------------------------- dispatch --

TEST_F(KernelTest, OverrideAndNames) {
  SetKernelOverride(KernelKind::kReference);
  EXPECT_EQ(ActiveKernel(), KernelKind::kReference);
  SetKernelOverride(KernelKind::kBlocked);
  EXPECT_EQ(ActiveKernel(), KernelKind::kBlocked);
  SetKernelOverride(KernelKind::kAvx2);
  // Falls back to blocked when the CPU lacks avx2+fma.
  EXPECT_EQ(ActiveKernel(),
            CpuSupportsAvx2Fma() ? KernelKind::kAvx2 : KernelKind::kBlocked);
  SetKernelOverride(KernelKind::kAuto);
  if (std::getenv("KNNSHAP_KERNEL") == nullptr) {
    // With no env override, auto picks avx2 when the CPU has it, else
    // blocked — never the reference kernel.
    EXPECT_EQ(ActiveKernel(),
              CpuSupportsAvx2Fma() ? KernelKind::kAvx2 : KernelKind::kBlocked);
  }
  // KernelFromName inverts KernelName over every kind and nothing else.
  for (KernelKind kind : {KernelKind::kAuto, KernelKind::kReference,
                          KernelKind::kBlocked, KernelKind::kAvx2}) {
    KernelKind parsed = KernelKind::kReference;
    EXPECT_TRUE(KernelFromName(KernelName(kind), &parsed)) << KernelName(kind);
    EXPECT_EQ(parsed, kind);
  }
  EXPECT_STREQ(KernelName(KernelKind::kReference), "reference");
  EXPECT_STREQ(KernelName(KernelKind::kBlocked), "blocked");
  EXPECT_STREQ(KernelName(KernelKind::kAvx2), "avx2");
  KernelKind untouched = KernelKind::kBlocked;
  EXPECT_FALSE(KernelFromName("", &untouched));
  EXPECT_FALSE(KernelFromName("AVX2", &untouched));
  EXPECT_FALSE(KernelFromName("sse", &untouched));
  EXPECT_EQ(untouched, KernelKind::kBlocked);
}

// The blocked kernel's plain-l2 passes at small d run the scalar
// reference loop (BENCH_kernel.json measures blocked 0.82-0.90x *slower*
// there), whether blocked was pinned or auto-selected: the policy reads
// the kernel, the metric and d, nothing else. Pure-function pin so the
// policy is testable on machines whose own auto pick is avx2.
TEST_F(KernelTest, BlockedRoutesSmallDimPlainL2ToReference) {
  using internal::ResolveDistanceKernel;
  EXPECT_EQ(ResolveDistanceKernel(KernelKind::kBlocked, Metric::kL2, 16),
            KernelKind::kReference);
  EXPECT_EQ(ResolveDistanceKernel(KernelKind::kBlocked, Metric::kL2, 31),
            KernelKind::kReference);
  // d >= 32: the multi-accumulator win outweighs the sqrt, keep blocked.
  EXPECT_EQ(ResolveDistanceKernel(KernelKind::kBlocked, Metric::kL2, 32),
            KernelKind::kBlocked);
  // Other metrics keep the fast path (squared-l2 has no per-row sqrt).
  EXPECT_EQ(ResolveDistanceKernel(KernelKind::kBlocked, Metric::kSquaredL2, 16),
            KernelKind::kBlocked);
  EXPECT_EQ(ResolveDistanceKernel(KernelKind::kBlocked, Metric::kL1, 16),
            KernelKind::kBlocked);
  // The other kernels are left alone.
  EXPECT_EQ(ResolveDistanceKernel(KernelKind::kAvx2, Metric::kL2, 16),
            KernelKind::kAvx2);
  EXPECT_EQ(ResolveDistanceKernel(KernelKind::kReference, Metric::kL2, 16),
            KernelKind::kReference);
  // Pinned and auto-selected blocked resolve alike: pinning blocked and
  // auto-detection on a CPU without avx2/fma both leave ActiveKernel() at
  // kBlocked, and the policy sees nothing else.
  SetKernelOverride(KernelKind::kBlocked);
  EXPECT_EQ(ResolveDistanceKernel(ActiveKernel(), Metric::kL2, 16),
            KernelKind::kReference);
  SetKernelOverride(KernelKind::kAuto);
  if (!CpuSupportsAvx2Fma()) {
    EXPECT_EQ(ResolveDistanceKernel(ActiveKernel(), Metric::kL2, 16),
              KernelKind::kReference);
  }
}

// ---------------------------------------------------- distance parity ----

// Rank order identical to the reference; distances within 1e-9. Dimensions
// deliberately include non-multiples of the SIMD width and d = 1.
TEST_F(KernelTest, ReferenceVsFastParityAllMetrics) {
  for (size_t dim : {1u, 3u, 7u, 8u, 13u, 32u, 67u}) {
    Matrix corpus = RandomMatrix(200, dim, /*seed=*/dim);
    std::vector<float> query = RandomQuery(dim, /*seed=*/100 + dim);
    const CorpusNorms norms(corpus);
    for (Metric metric : kAllMetrics) {
      SetKernelOverride(KernelKind::kReference);
      std::vector<double> ref = AllDistances(corpus, query, metric);
      std::vector<int> ref_order = ArgsortByDistance(corpus, query, metric);
      for (KernelKind kind : FastKernels()) {
        SetKernelOverride(kind);
        // With and without precomputed norms.
        for (const CorpusNorms* n : {static_cast<const CorpusNorms*>(nullptr),
                                     &norms}) {
          std::vector<double> fast = AllDistances(corpus, query, metric, n);
          ASSERT_EQ(fast.size(), ref.size());
          for (size_t i = 0; i < ref.size(); ++i) {
            EXPECT_NEAR(fast[i], ref[i], 1e-9)
                << MetricName(metric) << " kernel=" << KernelName(kind)
                << " dim=" << dim << " row=" << i;
          }
          std::vector<int> order = ArgsortByDistance(corpus, query, metric, n);
          EXPECT_EQ(order, ref_order)
              << MetricName(metric) << " kernel=" << KernelName(kind)
              << " dim=" << dim;
        }
      }
    }
  }
}

TEST_F(KernelTest, TopKParityAcrossKernels) {
  Matrix corpus = RandomMatrix(300, 19, 5);
  std::vector<float> query = RandomQuery(19, 6);
  for (Metric metric : kAllMetrics) {
    SetKernelOverride(KernelKind::kReference);
    auto ref = TopKNeighbors(corpus, query, 25, metric);
    for (KernelKind kind : FastKernels()) {
      SetKernelOverride(kind);
      auto fast = TopKNeighbors(corpus, query, 25, metric);
      ASSERT_EQ(fast.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(fast[i].index, ref[i].index)
            << MetricName(metric) << " kernel=" << KernelName(kind);
        EXPECT_NEAR(fast[i].distance, ref[i].distance, 1e-9);
      }
    }
  }
}

// ------------------------------------------------------------ edge cases --

TEST_F(KernelTest, SingleRowCorpus) {
  Matrix corpus = RandomMatrix(1, 5, 9);
  std::vector<float> query = RandomQuery(5, 10);
  for (KernelKind kind : FastKernels()) {
    SetKernelOverride(kind);
    for (Metric metric : kAllMetrics) {
      auto order = ArgsortByDistance(corpus, query, metric);
      EXPECT_EQ(order, (std::vector<int>{0}));
      auto top = TopKNeighbors(corpus, query, 3, metric);
      ASSERT_EQ(top.size(), 1u);
      EXPECT_EQ(top[0].index, 0);
    }
  }
}

TEST_F(KernelTest, ZeroNormCosineVectors) {
  // Rows 0 and 2 are all-zero; the reference defines their cosine distance
  // as 1. A zero query must give distance 1 to everything.
  Matrix corpus(3, 4);
  for (size_t j = 0; j < 4; ++j) corpus.At(1, j) = 1.0f;
  std::vector<float> query = {1.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> zero_query(4, 0.0f);
  const CorpusNorms norms(corpus);
  for (KernelKind kind : FastKernels()) {
    SetKernelOverride(kind);
    for (const CorpusNorms* n :
         {static_cast<const CorpusNorms*>(nullptr), &norms}) {
      auto dists = AllDistances(corpus, query, Metric::kCosine, n);
      EXPECT_DOUBLE_EQ(dists[0], 1.0) << KernelName(kind);
      EXPECT_DOUBLE_EQ(dists[2], 1.0) << KernelName(kind);
      EXPECT_LT(dists[1], 1.0);
      auto zero_dists = AllDistances(corpus, zero_query, Metric::kCosine, n);
      for (double d : zero_dists) EXPECT_DOUBLE_EQ(d, 1.0);
    }
  }
}

TEST_F(KernelTest, DuplicateRowCancelsToExactZero) {
  // With precomputed norms the ‖x‖² − 2x·q + ‖q‖² identity must cancel to
  // exactly 0 for a corpus row bit-identical to the query — equal-distance
  // tie handling depends on it.
  Matrix corpus = RandomMatrix(10, 23, 11);
  std::vector<float> query(corpus.Row(4).begin(), corpus.Row(4).end());
  for (KernelKind kind : FastKernels()) {
    SetKernelOverride(kind);
    // Norms must come from the kernel that consumes them (Fit-time order).
    const CorpusNorms norms(corpus);
    auto dists = AllDistances(corpus, query, Metric::kSquaredL2, &norms);
    EXPECT_EQ(dists[4], 0.0) << KernelName(kind);
  }
}

TEST_F(KernelTest, LargeCommonOffsetKeepsReferenceAccuracy) {
  // Data with a large common offset makes the ‖x‖²−2x·q+‖q‖² expansion
  // cancel catastrophically (norms ~1e8, distances ~1e-2); the guard must
  // fall back to the diff-square pass so ranks and distances still match
  // the reference.
  const size_t n = 100, dim = 16;
  Rng rng(41);
  Matrix corpus(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      corpus.At(i, j) = 10000.0f + static_cast<float>(rng.NextGaussian() * 1e-2);
    }
  }
  std::vector<float> query(dim);
  for (auto& c : query) c = 10000.0f + static_cast<float>(rng.NextGaussian() * 1e-2);
  SetKernelOverride(KernelKind::kReference);
  auto ref = AllDistances(corpus, query, Metric::kSquaredL2);
  auto ref_order = ArgsortByDistance(corpus, query, Metric::kSquaredL2);
  for (KernelKind kind : FastKernels()) {
    SetKernelOverride(kind);
    const CorpusNorms norms(corpus);
    auto fast = AllDistances(corpus, query, Metric::kSquaredL2, &norms);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(fast[i], ref[i], 1e-9 * std::max(1.0, ref[i]))
          << KernelName(kind) << " row=" << i;
    }
    EXPECT_EQ(ArgsortByDistance(corpus, query, Metric::kSquaredL2, &norms),
              ref_order)
        << KernelName(kind);
  }
}

TEST_F(KernelTest, GatherMatchesFullPass) {
  Matrix corpus = RandomMatrix(50, 9, 12);
  std::vector<float> query = RandomQuery(9, 13);
  std::vector<int> rows = {41, 3, 17, 3, 0, 49};
  CorpusNorms norms(corpus);
  for (KernelKind kind : FastKernels()) {
    SetKernelOverride(kind);
    for (Metric metric : kAllMetrics) {
      auto all = AllDistances(corpus, query, metric, &norms);
      std::vector<double> gathered(rows.size());
      ComputeDistancesFor(corpus, rows, query, metric, &norms, gathered);
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(gathered[i], all[static_cast<size_t>(rows[i])])
            << MetricName(metric) << " kernel=" << KernelName(kind);
      }
    }
  }
}

TEST_F(KernelTest, DistanceMatrixMatchesPerQueryPass) {
  Matrix corpus = RandomMatrix(120, 17, 14);
  Matrix queries = RandomMatrix(7, 17, 15);
  CorpusNorms norms(corpus);
  for (KernelKind kind : FastKernels()) {
    SetKernelOverride(kind);
    for (Metric metric : kAllMetrics) {
      std::vector<double> matrix(corpus.Rows() * queries.Rows());
      ComputeDistanceMatrix(corpus, queries, metric, &norms, matrix);
      for (size_t j = 0; j < queries.Rows(); ++j) {
        auto per_query = AllDistances(corpus, queries.Row(j), metric, &norms);
        for (size_t i = 0; i < corpus.Rows(); ++i) {
          EXPECT_EQ(matrix[j * corpus.Rows() + i], per_query[i])
              << MetricName(metric) << " kernel=" << KernelName(kind);
        }
      }
    }
  }
}

TEST_F(KernelTest, ForEachBatchedTopKMatchesPerQuery) {
  // 35 queries exercise the 16-query chunking (16 + 16 + 3); results must
  // be bit-identical to per-query TopKNeighbors under every kernel, on
  // both sides of the blocked kernel's d < 32 plain-l2 reroute.
  for (size_t d : {size_t{9}, size_t{16}, size_t{31}, size_t{32}}) {
    Matrix corpus = RandomMatrix(50, d, 16);
    Matrix queries = RandomMatrix(35, d, 17);
    std::vector<KernelKind> kinds = FastKernels();
    kinds.push_back(KernelKind::kReference);
    for (KernelKind kind : kinds) {
      SetKernelOverride(kind);
      const CorpusNorms norms(corpus);
      for (Metric metric : kAllMetrics) {
        size_t seen = 0;
        ForEachBatchedTopK(corpus, queries, 7, metric, &norms,
                           [&](size_t row, const std::vector<Neighbor>& nns) {
                             EXPECT_EQ(row, seen++);
                             auto ref = TopKNeighbors(corpus, queries.Row(row),
                                                      7, metric, &norms);
                             ASSERT_EQ(nns.size(), ref.size());
                             for (size_t i = 0; i < ref.size(); ++i) {
                               EXPECT_EQ(nns[i].index, ref[i].index);
                               EXPECT_EQ(nns[i].distance, ref[i].distance)
                                   << MetricName(metric) << " d=" << d
                                   << " kernel=" << KernelName(kind);
                             }
                           });
        EXPECT_EQ(seen, queries.Rows());
      }
    }
  }
}

// ------------------------------------------------- packed-key ordering ----

TEST_F(KernelTest, PackedArgsortMatchesComparatorSort) {
  // Handcrafted distances stressing the packed representation: exact ties,
  // values differing only below float precision, tiny negatives (cosine
  // rounding), and infinities.
  std::vector<double> dists = {3.0,
                               1.0,
                               1.0,
                               1.0 + 1e-12,
                               1.0 - 1e-12,
                               -1e-18,
                               0.0,
                               std::numeric_limits<double>::infinity(),
                               2.5,
                               -1e-18};
  std::vector<int> expected(dists.size());
  std::iota(expected.begin(), expected.end(), 0);
  std::sort(expected.begin(), expected.end(), [&](int a, int b) {
    double da = dists[static_cast<size_t>(a)];
    double db = dists[static_cast<size_t>(b)];
    if (da != db) return da < db;
    return a < b;
  });
  std::vector<int> order;
  ArgsortDistances(dists, &order);
  EXPECT_EQ(order, expected);

  for (size_t k = 1; k <= dists.size(); ++k) {
    auto top = SelectTopK(dists, {}, k);
    ASSERT_EQ(top.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(top[i].index, expected[i]) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].distance, dists[static_cast<size_t>(expected[i])]);
    }
  }
}

TEST_F(KernelTest, SelectTopKWithIdMapBreaksTiesById) {
  // Candidate rescoring hands SelectTopK corpus ids in arbitrary order;
  // equal distances must still come back sorted by id.
  std::vector<double> dists = {1.0, 0.5, 1.0, 0.5};
  std::vector<int> ids = {9, 7, 2, 30};
  auto top = SelectTopK(dists, ids, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 7);
  EXPECT_EQ(top[1].index, 30);
  EXPECT_EQ(top[2].index, 2);
}

// ------------------------------------------- tie-heavy retrieval parity ---

// Satellite regression test: kd-tree, bounded heap, and brute force must
// agree exactly on a fixture where most distances tie (clusters of
// bit-identical points, inserted in scrambled order).
TEST_F(KernelTest, TieHeavyKdTreeHeapBruteForceAgree) {
  const size_t clusters = 6, copies = 4, dim = 3;
  Matrix m(clusters * copies, dim);
  Rng rng(21);
  std::vector<std::vector<float>> centers(clusters, std::vector<float>(dim));
  for (auto& c : centers) {
    for (auto& x : c) x = static_cast<float>(rng.NextGaussian());
  }
  // Scrambled assignment: row i belongs to cluster (i * 11) % clusters, so
  // equal-distance rows are scattered across the index range.
  for (size_t i = 0; i < m.Rows(); ++i) {
    const auto& c = centers[(i * 11) % clusters];
    for (size_t j = 0; j < dim; ++j) m.At(i, j) = c[j];
  }
  std::vector<float> query = RandomQuery(dim, 22);

  KdTree tree(&m, /*leaf_size=*/2);
  BruteForceIndex brute(&m);
  for (size_t k : {1u, 3u, 5u, 9u, 24u}) {
    auto exact = TopKNeighbors(m, query, k);
    auto from_tree = tree.Query(query, k);
    auto from_brute = brute.Query(query, k);
    // Heap pushed in descending row order — worst case for insertion-order
    // dependence.
    BoundedMaxHeap<int> heap(k);
    for (size_t i = m.Rows(); i-- > 0;) {
      heap.Push(Distance(m.Row(i), query, Metric::kL2), static_cast<int>(i));
    }
    auto from_heap = heap.SortedEntries();
    ASSERT_EQ(from_tree.size(), exact.size()) << "k=" << k;
    ASSERT_EQ(from_brute.size(), exact.size()) << "k=" << k;
    ASSERT_EQ(from_heap.size(), exact.size()) << "k=" << k;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(from_tree[i].index, exact[i].index) << "k=" << k << " i=" << i;
      EXPECT_EQ(from_brute[i].index, exact[i].index) << "k=" << k << " i=" << i;
      EXPECT_EQ(from_heap[i].payload, exact[i].index) << "k=" << k << " i=" << i;
    }
  }
}

TEST_F(KernelTest, BoundedHeapSortedEntriesDeterministicUnderTies) {
  // Equal keys with payloads inserted in two different orders must sort
  // identically (the old key-only std::sort could reorder them).
  std::vector<int> forward = {2, 5, 1, 9, 4};
  BoundedMaxHeap<int> a(5), b(5);
  for (int p : forward) a.Push(1.0, p);
  for (auto it = forward.rbegin(); it != forward.rend(); ++it) b.Push(1.0, *it);
  auto sa = a.SortedEntries();
  auto sb = b.SortedEntries();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].payload, sb[i].payload);
    EXPECT_EQ(sa[i].payload, std::vector<int>({1, 2, 4, 5, 9})[i]);
  }
}

// --------------------------------------------- engine value parity --------

// All six registered methods: fast-kernel values within 1e-9 of the
// reference-kernel values on a fixed-seed fixture. Valuators are re-fitted
// under each kernel so cached norms match the kernel that uses them.
TEST_F(KernelTest, EngineMethodsReferenceVsFastValueParity) {
  auto train = std::make_shared<Dataset>(RandomClassDataset(60, 2, 6, 31));
  train->targets.resize(train->Size());
  for (size_t i = 0; i < train->Size(); ++i) {
    train->targets[i] = train->features.Row(i)[0];
  }
  Dataset test = RandomClassDataset(4, 2, 6, 32);
  test.targets.resize(test.Size());
  for (size_t i = 0; i < test.Size(); ++i) {
    test.targets[i] = test.features.Row(i)[0];
  }

  ValuatorParams params;
  params.k = 3;
  params.seed = 7;
  auto value_with = [&](const std::string& method, KernelKind kind) {
    SetKernelOverride(kind);
    ValuatorParams p = params;
    if (method == "weighted") p.task = KnnTask::kWeightedClassification;
    if (method == "regression") p.task = KnnTask::kRegression;
    auto valuator = ValuatorRegistry::Global().Create(method, p);
    valuator->Fit(train);
    return valuator->Value(test);
  };

  for (const auto& info : ValuatorRegistry::Global().Methods()) {
    std::vector<double> ref = value_with(info.name, KernelKind::kReference);
    for (KernelKind kind : FastKernels()) {
      std::vector<double> fast = value_with(info.name, kind);
      ASSERT_EQ(fast.size(), ref.size()) << info.name;
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(fast[i], ref[i], 1e-9)
            << info.name << " kernel=" << KernelName(kind) << " row=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace knnshap
