// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Parity suite for streaming top-R selection (knn/selection.h) and the
// truncated-exact valuation path built on it. The contract under test: for
// both top-R paths (the bounded heap, forced at every r, and the size rule
// that picks it or the argsort prefix) and every input — tie-heavy ones
// especially — the top-R prefix is bit-identical to the same-length prefix
// of ArgsortDistances,
// block-parallel selection is bit-identical to serial, and the observed
// sup-norm error of the truncated recursions never exceeds the analytic
// bound reported to clients.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/corrected_knn_shapley.h"
#include "core/exact_knn_shapley.h"
#include "dataset/dataset.h"
#include "knn/distance_kernel.h"
#include "knn/neighbors.h"
#include "knn/selection.h"
#include "test_util.h"
#include "util/random.h"

namespace knnshap {
namespace {

using testing_util::RandomClassDataset;
using testing_util::RankOrder;
using testing_util::SingleQuery;

// Truncated-exact SVs at nominal rank r, ranked as ExactValuator ranks
// under an approx_error budget: the effective prefix, or the full order
// once the prefix covers every row.
std::vector<double> TruncatedExact(const Dataset& train, std::span<const float> q,
                                   int label, int k, size_t r) {
  const size_t n = train.Size();
  r = TruncatedExactEffectiveRank(r, n, k);
  const std::vector<int> order = RankOrder(train, q, r);
  return r >= n ? ExactKnnShapleyFromOrder(order, train.labels, label, k)
                : TruncatedExactKnnShapleyFromOrder(order, train.labels, label, k, n);
}

// Truncated corrected SVs at nominal rank r, ranked as CorrectedValuator
// ranks: no ranking in the labels-only N-1 < K regime, else as above.
std::vector<double> TruncatedCorrected(const Dataset& train, std::span<const float> q,
                                       int label, int k, size_t r) {
  const size_t n = train.Size();
  if (static_cast<int>(n) - 1 < k) {
    return TruncatedCorrectedKnnShapleyFromOrder({}, train.labels, label, k);
  }
  r = TruncatedCorrectedEffectiveRank(r, n, k);
  const std::vector<int> order = RankOrder(train, q, r);
  return r >= n ? CorrectedKnnShapleyFromOrder(order, train.labels, label, k)
                : TruncatedCorrectedKnnShapleyFromOrder(order, train.labels, label, k);
}

class SelectTest : public ::testing::Test {
 protected:
  void TearDown() override { SetIntraQueryOptions(IntraQueryOptions{}); }

  // Both top-R paths must answer the first min(r, n) entries of `full`:
  // PartialArgsortDistances, which picks its path by size, and the heap
  // forced at any r in [1, n].
  static void ExpectTopRPrefix(std::span<const double> dists, size_t r,
                               const std::vector<int>& full,
                               const std::string& context) {
    const size_t len = std::min(r, dists.size());
    const std::vector<int> want(full.begin(),
                                full.begin() + static_cast<long>(len));
    std::vector<int> got;
    PartialArgsortDistances(dists, r, &got);
    EXPECT_EQ(got, want) << context << " r=" << r << " partial";
    if (r >= 1 && r <= dists.size()) {
      internal::TopRHeap(dists, r, &got);
      EXPECT_EQ(got, want) << context << " r=" << r << " heap";
    }
  }

  // Distance fixtures chosen to stress the boundary band: long runs of
  // duplicate values, sub-float-ulp perturbations that collapse to one
  // float key but differ as doubles, tiny negatives (cosine rounding), and
  // infinities.
  static std::vector<std::vector<double>> TieHeavyFixtures() {
    std::vector<std::vector<double>> fixtures;
    fixtures.push_back({0.0});                          // single element
    fixtures.push_back({2.0, 2.0, 2.0, 2.0, 2.0});      // all equal
    fixtures.push_back({5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0});
    {
      // Doubles that round to the same float but differ exactly.
      std::vector<double> v;
      for (int i = 0; i < 64; ++i) {
        v.push_back(1.0 + (i % 4) * 1e-12);
      }
      fixtures.push_back(std::move(v));
    }
    {
      std::vector<double> v = {-1e-18, 0.0, -0.0, 1e-18,
                               std::numeric_limits<double>::infinity(), 3.0,
                               3.0, -1e-18, 0.0};
      fixtures.push_back(std::move(v));
    }
    {
      // Quantized random values: every value collides with ~n/8 others.
      Rng rng(7);
      std::vector<double> v(257);
      for (auto& x : v) x = std::floor(rng.NextDouble() * 8.0) / 8.0;
      fixtures.push_back(std::move(v));
    }
    {
      Rng rng(11);
      std::vector<double> v(513);
      for (auto& x : v) x = rng.NextGaussian();
      fixtures.push_back(std::move(v));
    }
    return fixtures;
  }

  static std::vector<size_t> InterestingRs(size_t n) {
    std::vector<size_t> rs = {0, 1, n, n + 5};
    if (n >= 1) rs.push_back(n - 1);
    if (n >= 2) rs.push_back(n / 2);
    if (n >= 3) rs.push_back(3);  // a typical K
    // Straddles the heap/argsort cutoff.
    rs.push_back(n / internal::kHeapRankDivisor);
    rs.push_back(n / internal::kHeapRankDivisor + 1);
    std::sort(rs.begin(), rs.end());
    rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
    return rs;
  }
};

TEST_F(SelectTest, PartialPrefixMatchesArgsortOnTieHeavyFixtures) {
  for (const auto& dists : TieHeavyFixtures()) {
    std::vector<int> full;
    ArgsortDistances(dists, &full);
    for (size_t r : InterestingRs(dists.size())) {
      ExpectTopRPrefix(dists, r, full, "n=" + std::to_string(dists.size()));
    }
  }
}

TEST_F(SelectTest, MergedBlockRunsEqualGlobalTopR) {
  for (const auto& dists : TieHeavyFixtures()) {
    const size_t n = dists.size();
    std::vector<int> full;
    ArgsortDistances(dists, &full);
    for (size_t r : InterestingRs(n)) {
      for (size_t block : {size_t{1}, size_t{3}, size_t{64}}) {
        // Per-block exact top-r (block-local selection, offset to global
        // indices) then one k-way merge of the runs — the BlockedTopR
        // recipe.
        std::vector<std::vector<int>> runs;
        for (size_t begin = 0; begin < n; begin += block) {
          const size_t end = std::min(begin + block, n);
          std::vector<int> local;
          PartialArgsortDistances(
              std::span<const double>(dists).subspan(begin, end - begin), r,
              &local);
          for (int& idx : local) idx += static_cast<int>(begin);
          runs.push_back(std::move(local));
        }
        std::vector<int> merged;
        MergeSortedCandidateRuns(dists, runs, r, &merged);
        const size_t want = std::min(r, n);
        ASSERT_EQ(merged.size(), want) << "n=" << n << " r=" << r;
        for (size_t i = 0; i < want; ++i) {
          ASSERT_EQ(merged[i], full[i])
              << "n=" << n << " r=" << r << " block=" << block << " rank=" << i;
        }
      }
    }
  }
}

TEST_F(SelectTest, BlockedTopROrderMatchesSerial) {
  const Dataset train = RandomClassDataset(300, 3, 4, 21);
  const Dataset query = SingleQuery(4, 22);
  const auto q = query.features.Row(0);
  for (Metric metric : {Metric::kSquaredL2, Metric::kCosine}) {
    const std::vector<int> full = ArgsortByDistance(train.features, q, metric);
    std::vector<double> dists(train.Size());
    for (size_t r : {size_t{1}, size_t{7}, size_t{299}, size_t{300}, size_t{400}}) {
      // Serial reference (thresholds at defaults keep the path serial).
      std::vector<int> serial;
      RankByDistance(train.features, q, r, metric, nullptr, dists, &serial);
      // Forced-blocked run with a block size that doesn't divide n.
      SetIntraQueryOptions({.min_rows = 1, .block_rows = 7});
      std::vector<int> blocked;
      RankByDistance(train.features, q, r, metric, nullptr, dists, &blocked);
      SetIntraQueryOptions(IntraQueryOptions{});
      const size_t want = std::min(r, static_cast<size_t>(300));
      ASSERT_EQ(serial.size(), want);
      ASSERT_EQ(blocked, serial) << "metric=" << static_cast<int>(metric)
                                 << " r=" << r;
      for (size_t i = 0; i < want; ++i) ASSERT_EQ(serial[i], full[i]);
    }
  }
}

TEST_F(SelectTest, TopKNeighborsBlockedMatchesSerialIncludingDistances) {
  const Dataset train = RandomClassDataset(200, 2, 1, 33);  // d = 1
  const Dataset query = SingleQuery(1, 34);
  const auto q = query.features.Row(0);
  const auto serial = TopKNeighbors(train.features, q, 13, Metric::kL2);
  SetIntraQueryOptions({.min_rows = 1, .block_rows = 9});
  std::vector<Neighbor> blocked;
  TopKNeighborsInto(train.features, q, 13, Metric::kL2, nullptr, &blocked);
  ASSERT_EQ(blocked.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(blocked[i].index, serial[i].index) << i;
    EXPECT_EQ(blocked[i].distance, serial[i].distance) << i;
  }
}

TEST_F(SelectTest, SingleRowCorpusAndDegenerateR) {
  const Dataset train = RandomClassDataset(1, 2, 3, 41);
  const Dataset query = SingleQuery(3, 42);
  const auto q = query.features.Row(0);
  std::vector<double> dists(train.Size());
  std::vector<int> order;
  RankByDistance(train.features, q, 5, Metric::kL2, nullptr, dists, &order);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 0);
  RankByDistance(train.features, q, 0, Metric::kL2, nullptr, dists, &order);
  EXPECT_TRUE(order.empty());
}

// The truncated recursions must (a) never exceed the bound they report and
// (b) degrade to bit-identical exact values when r >= N.
TEST_F(SelectTest, TruncatedExactErrorWithinReportedBound) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Dataset train = RandomClassDataset(120, 3, 4, seed);
    const Dataset query = SingleQuery(4, seed + 100, /*label=*/1);
    const auto q = query.features.Row(0);
    const size_t n = train.Size();
    for (int k : {1, 3, 10}) {
      const auto exact =
          ExactKnnShapleyFromOrder(RankOrder(train, q), train.labels, 1, k);
      for (size_t r : {size_t{1}, size_t{5}, size_t{20}, size_t{60},
                       size_t{119}, size_t{120}, size_t{200}}) {
        const auto truncated = TruncatedExact(train, q, 1, k, r);
        const double bound = TruncatedExactKnnShapleyBound(r, n);
        ASSERT_EQ(truncated.size(), exact.size());
        double err = 0.0;
        for (size_t i = 0; i < n; ++i) {
          err = std::max(err, std::abs(truncated[i] - exact[i]));
        }
        if (r >= n) {
          EXPECT_EQ(bound, 0.0);
          EXPECT_EQ(truncated, exact) << "k=" << k << " r=" << r;
        } else {
          EXPECT_LE(err, bound + 1e-12)
              << "seed=" << seed << " k=" << k << " r=" << r;
        }
      }
    }
  }
}

TEST_F(SelectTest, TruncatedCorrectedErrorWithinReportedBound) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    const Dataset train = RandomClassDataset(120, 3, 4, seed);
    const Dataset query = SingleQuery(4, seed + 100, /*label=*/1);
    const auto q = query.features.Row(0);
    const size_t n = train.Size();
    for (int k : {1, 3, 10, 200}) {  // k=200 > N: the exact small-N regime
      const auto exact =
          CorrectedKnnShapleyFromOrder(RankOrder(train, q), train.labels, 1, k);
      for (size_t r : {size_t{1}, size_t{5}, size_t{20}, size_t{60},
                       size_t{119}, size_t{120}, size_t{200}}) {
        const auto truncated = TruncatedCorrected(train, q, 1, k, r);
        const double bound = TruncatedCorrectedKnnShapleyBound(r, n, k);
        ASSERT_EQ(truncated.size(), exact.size());
        double err = 0.0;
        for (size_t i = 0; i < n; ++i) {
          err = std::max(err, std::abs(truncated[i] - exact[i]));
        }
        if (r >= n || k >= static_cast<int>(n)) {
          EXPECT_EQ(bound, 0.0) << "k=" << k << " r=" << r;
          testing_util::ExpectVectorNear(truncated, exact, 1e-12);
        } else {
          EXPECT_LE(err, bound + 1e-12)
              << "seed=" << seed << " k=" << k << " r=" << r;
        }
      }
    }
  }
}

// The truncated path must agree with itself across both top-R paths and
// the blocked shard path — the values are a pure function of the top-R
// prefix, which is bit-identical everywhere. At n = 150, r = 4 selects
// with the heap serially (4 <= 150 / 32) while every 11-row block takes
// the argsort prefix; r = 25 takes the argsort prefix both ways.
TEST_F(SelectTest, TruncatedValuesIdenticalAcrossStrategiesAndBlocking) {
  const Dataset train = RandomClassDataset(150, 3, 4, 9);
  const Dataset query = SingleQuery(4, 10, /*label=*/0);
  const auto q = query.features.Row(0);
  for (size_t r : {size_t{4}, size_t{25}}) {
    const auto serial = TruncatedExact(train, q, 0, 3, r);
    SetIntraQueryOptions({.min_rows = 1, .block_rows = 11});
    EXPECT_EQ(TruncatedExact(train, q, 0, 3, r), serial)
        << "r=" << r << " blocked";
    SetIntraQueryOptions(IntraQueryOptions{});
  }
}

TEST_F(SelectTest, BoundShapes) {
  // Exact regimes report exactly zero.
  EXPECT_EQ(TruncatedExactKnnShapleyBound(10, 10), 0.0);
  EXPECT_EQ(TruncatedExactKnnShapleyBound(11, 10), 0.0);
  EXPECT_EQ(TruncatedExactKnnShapleyBound(5, 0), 0.0);
  EXPECT_EQ(TruncatedCorrectedKnnShapleyBound(10, 10, 3), 0.0);
  EXPECT_EQ(TruncatedCorrectedKnnShapleyBound(2, 10, 10), 0.0);
  // Otherwise positive and non-increasing in r.
  double prev = std::numeric_limits<double>::infinity();
  for (size_t r = 1; r < 100; ++r) {
    const double b = TruncatedExactKnnShapleyBound(r, 100);
    EXPECT_GT(b, 0.0);
    EXPECT_LE(b, prev);
    prev = b;
  }
  prev = std::numeric_limits<double>::infinity();
  for (size_t r = 1; r < 100; ++r) {
    const double b = TruncatedCorrectedKnnShapleyBound(r, 100, 5);
    EXPECT_GT(b, 0.0);
    EXPECT_LE(b, prev);
    prev = b;
  }
}

// The -0.0 paragraph of the selection.h ordering contract: the packed key
// canonicalizes -0.0 to +0.0, so external callers (the shard merge) may
// compare raw double distances with a plain (dist, index) comparator and
// reproduce the packed order bit for bit — no signed-zero special-casing.
TEST_F(SelectTest, SignedZeroKeysIdenticallyToPositiveZero) {
  EXPECT_EQ(internal::SortableBits(-0.0), internal::SortableBits(0.0));

  // -0.0/+0.0 interleaved (plus sub-float-ulp neighbors that round into
  // the same float band) — the exact inputs where a non-canonicalized key
  // would disagree with the double comparator.
  const std::vector<double> dists = {-0.0, 1e-300,  0.0, -0.0,
                                     0.0,  -1e-300, -0.0};
  std::vector<int> expected(dists.size());
  std::iota(expected.begin(), expected.end(), 0);
  std::sort(expected.begin(), expected.end(), [&](int a, int b) {
    return dists[a] < dists[b] || (dists[a] == dists[b] && a < b);
  });

  std::vector<int> packed;
  ArgsortDistances(dists, &packed);
  EXPECT_EQ(packed, expected);

  for (size_t r : InterestingRs(dists.size())) {
    ExpectTopRPrefix(dists, r, expected, "signed zeros");
  }
}

// The k-way run merge the shard router uses at r = N: merging each
// contiguous part's exact top-r (offset to global indices) must reproduce
// the global top-r, the ArgsortDistances prefix, bit for bit.
TEST_F(SelectTest, MergeSortedCandidateRunsMatchesGlobalTopR) {
  for (const auto& dists : TieHeavyFixtures()) {
    const size_t n = dists.size();
    std::vector<int> full;
    ArgsortDistances(dists, &full);

    for (size_t parts : {1u, 2u, 3u, 5u}) {
      std::vector<std::pair<size_t, size_t>> ranges;
      for (size_t p = 0; p < parts; ++p) {
        const size_t begin = p * n / parts, end = (p + 1) * n / parts;
        if (begin < end) ranges.emplace_back(begin, end);
      }
      for (size_t r : InterestingRs(n)) {
        std::vector<std::vector<int>> runs;
        for (const auto& [begin, end] : ranges) {
          std::vector<int> local;
          PartialArgsortDistances(
              std::span<const double>(dists).subspan(begin, end - begin), r,
              &local);
          for (int& index : local) index += static_cast<int>(begin);
          runs.push_back(std::move(local));
        }
        const std::vector<int> expected(full.begin(),
                                        full.begin() + std::min(r, n));
        std::vector<int> merged;
        MergeSortedCandidateRuns(dists, runs, r, &merged);
        EXPECT_EQ(merged, expected) << "parts=" << parts << " r=" << r;
      }
    }
  }
}

// The radix argsort against the reference comparator std::sort on the
// exact (double, index) pair, at sizes around the 11-bit digit boundaries
// and on the inputs where the float key and the double disagree: distinct
// doubles rounding to one float, signed zeros, heavy duplicates, all-equal.
std::vector<int> ComparatorArgsort(const std::vector<double>& dists) {
  std::vector<int> order(dists.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&dists](int a, int b) {
    const double da = dists[static_cast<size_t>(a)];
    const double db = dists[static_cast<size_t>(b)];
    return da < db || (da == db && a < b);
  });
  return order;
}

std::vector<std::pair<std::string, std::vector<double>>> RadixParityInputs(
    size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::vector<double>>> inputs;
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextGaussian() * 100.0;
  inputs.emplace_back("gaussian", v);
  for (auto& x : v) {
    // Sub-half-ulp offsets: many distinct doubles per float key.
    const float base = static_cast<float>(rng.NextIndex(97)) / 64.0f;
    x = static_cast<double>(base) + static_cast<double>(rng.NextIndex(7)) * 1e-13;
  }
  inputs.emplace_back("float-collisions", v);
  const double zeros[] = {0.0, -0.0, 1e-300, -1e-300, 1e-310, 0.5, -0.5};
  for (auto& x : v) x = zeros[rng.NextIndex(7)];
  inputs.emplace_back("signed-zeros", v);
  for (auto& x : v) x = std::floor(rng.NextDouble() * 8.0) / 8.0;
  inputs.emplace_back("heavy-duplicates", v);
  std::fill(v.begin(), v.end(), 2.5);
  inputs.emplace_back("all-equal", v);
  return inputs;
}

TEST_F(SelectTest, RadixArgsortMatchesComparatorSort) {
  for (const auto& dists : TieHeavyFixtures()) {
    std::vector<int> got;
    ArgsortDistances(dists, &got);
    EXPECT_EQ(got, ComparatorArgsort(dists)) << "n=" << dists.size();
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{2047}, size_t{2048},
                   size_t{2049}, size_t{65537}, size_t{200000}}) {
    for (const auto& [name, dists] : RadixParityInputs(n, 1000 + n)) {
      const std::vector<int> expected = ComparatorArgsort(dists);
      std::vector<int> got;
      ArgsortDistances(dists, &got);
      ASSERT_EQ(got, expected) << name << " n=" << n;
      // Both top-R paths answer against the same oracle.
      for (size_t r : {size_t{1}, n / 32, n / 32 + 1, n / 2 + 1}) {
        ExpectTopRPrefix(dists, r, expected,
                         name + " n=" + std::to_string(n));
      }
    }
  }
}

// PartialArgsortDistances takes the heap up to r = n / kHeapRankDivisor and
// the argsort prefix above it. Pin the answer on both sides of the cutoff,
// at sizes that do and do not divide evenly, on the inputs where the float
// key and the double disagree.
TEST_F(SelectTest, PartialArgsortMatchesOnBothSidesOfHeapCutoff) {
  for (size_t n : {size_t{32}, size_t{1000}, size_t{4096}, size_t{12500}}) {
    for (const auto& [name, dists] : RadixParityInputs(n, 2000 + n)) {
      const std::vector<int> expected = ComparatorArgsort(dists);
      const size_t cutoff = n / internal::kHeapRankDivisor;
      for (size_t r : {cutoff - 1, cutoff, cutoff + 1, cutoff + 2}) {
        std::vector<int> got;
        PartialArgsortDistances(dists, r, &got);
        EXPECT_EQ(got, std::vector<int>(expected.begin(),
                                        expected.begin() + static_cast<long>(r)))
            << name << " n=" << n << " r=" << r;
      }
    }
  }
}

}  // namespace
}  // namespace knnshap
