// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/binomial.h"
#include "util/bounded_heap.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/line_reader.h"
#include "util/matrix.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace knnshap {
namespace {

// ---------------------------------------------------------------- random --

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextIndexCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.NextIndex(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.1, 0.01);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(11);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.NextGaussian());
  EXPECT_NEAR(m.Mean(), 0.0, 0.02);
  EXPECT_NEAR(m.Variance(), 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(12);
  RunningMoments m;
  for (int i = 0; i < 100000; ++i) m.Add(rng.NextGaussian(3.0, 0.5));
  EXPECT_NEAR(m.Mean(), 3.0, 0.02);
  EXPECT_NEAR(m.StdDev(), 0.5, 0.02);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(13);
  auto perm = rng.Permutation(50);
  std::set<int> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 49);
}

TEST(RngTest, PermutationIsUniformish) {
  // Position of element 0 should be uniform over 5 slots.
  Rng rng(14);
  std::vector<int> where(5, 0);
  for (int t = 0; t < 50000; ++t) {
    auto perm = rng.Permutation(5);
    for (int i = 0; i < 5; ++i) {
      if (perm[static_cast<size_t>(i)] == 0) ++where[static_cast<size_t>(i)];
    }
  }
  for (int c : where) EXPECT_NEAR(c / 50000.0, 0.2, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(15);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int x : sample) {
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 100);
  }
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng rng(16);
  auto sample = rng.SampleWithoutReplacement(20, 20);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

// ----------------------------------------------------------------- stats --

TEST(StatsTest, MeanAndVariance) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 2.5);
}

TEST(StatsTest, EmptyMeanIsZero) { EXPECT_EQ(Mean({}), 0.0); }

TEST(StatsTest, RunningMomentsMatchesBatch) {
  Rng rng(1);
  std::vector<double> xs;
  RunningMoments m;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextGaussian(2.0, 3.0);
    xs.push_back(x);
    m.Add(x);
  }
  EXPECT_NEAR(m.Mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(m.Variance(), Variance(xs), 1e-9);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {-2, -4, -6, -8};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  std::vector<double> xs = {1, 1, 1};
  std::vector<double> ys = {1, 2, 3};
  EXPECT_EQ(PearsonCorrelation(xs, ys), 0.0);
}

TEST(StatsTest, SpearmanMonotoneTransformInvariance) {
  Rng rng(2);
  std::vector<double> xs, cubed;
  for (int i = 0; i < 200; ++i) {
    double x = rng.NextGaussian();
    xs.push_back(x);
    cubed.push_back(x * x * x);  // strictly monotone in x
  }
  EXPECT_NEAR(SpearmanCorrelation(xs, cubed), 1.0, 1e-12);
}

TEST(StatsTest, FractionalRanksHandleTies) {
  std::vector<double> xs = {10.0, 20.0, 10.0, 30.0};
  auto ranks = FractionalRanks(xs);
  EXPECT_DOUBLE_EQ(ranks[0], 1.5);
  EXPECT_DOUBLE_EQ(ranks[2], 1.5);
  EXPECT_DOUBLE_EQ(ranks[1], 3.0);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(StatsTest, QuantileEndpointsAndMedian) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
}

TEST(StatsTest, MaxAbsDifference) {
  EXPECT_DOUBLE_EQ(MaxAbsDifference({1, 2, 3}, {1, 2.5, 2}), 1.0);
  EXPECT_DOUBLE_EQ(MaxAbsDifference({}, {}), 0.0);
}

// -------------------------------------------------------------- binomial --

TEST(BinomialTest, SmallFactorials) {
  EXPECT_DOUBLE_EQ(LogFactorial(0), 0.0);
  EXPECT_DOUBLE_EQ(LogFactorial(1), 0.0);
  EXPECT_NEAR(std::exp(LogFactorial(5)), 120.0, 1e-9);
}

TEST(BinomialTest, ChooseMatchesPascal) {
  for (int n = 1; n <= 20; ++n) {
    for (int k = 1; k < n; ++k) {
      EXPECT_NEAR(Choose(n, k), Choose(n - 1, k - 1) + Choose(n - 1, k),
                  1e-6 * Choose(n, k))
          << n << " choose " << k;
    }
  }
}

TEST(BinomialTest, ChooseOutOfRangeIsZero) {
  EXPECT_EQ(Choose(5, 6), 0.0);
  EXPECT_EQ(Choose(5, -1), 0.0);
}

TEST(BinomialTest, ChooseRatioMatchesDirect) {
  EXPECT_NEAR(ChooseRatio(10, 3, 12, 5), Choose(10, 3) / Choose(12, 5), 1e-12);
}

// The identity behind Theorem 1 (Eq 11-13): the inner binomial sum equals
// min(K,i) (N-1) / i. Property-swept over N, K, i.
struct IdentityCase {
  int n, k;
};

class Theorem1IdentityTest : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(Theorem1IdentityTest, InnerSumClosedForm) {
  auto [n, k] = GetParam();
  // The identity applies to adjacent pairs (i, i+1), hence i <= N-1.
  for (int i = 1; i <= n - 1; ++i) {
    double expected = std::min(k, i) * static_cast<double>(n - 1) / i;
    EXPECT_NEAR(Theorem1InnerSum(n, k, i), expected, 1e-8 * expected)
        << "n=" << n << " k=" << k << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem1IdentityTest,
                         ::testing::Values(IdentityCase{5, 1}, IdentityCase{5, 2},
                                           IdentityCase{8, 3}, IdentityCase{12, 1},
                                           IdentityCase{12, 5}, IdentityCase{20, 7},
                                           IdentityCase{30, 3}));

// ------------------------------------------------------------------ heap --

TEST(BoundedHeapTest, KeepsSmallestK) {
  BoundedMaxHeap<int> heap(3);
  for (int i = 0; i < 10; ++i) heap.Push(static_cast<double>(10 - i), i);
  auto sorted = heap.SortedEntries();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].key, 1.0);
  EXPECT_DOUBLE_EQ(sorted[1].key, 2.0);
  EXPECT_DOUBLE_EQ(sorted[2].key, 3.0);
}

TEST(BoundedHeapTest, PushReportsChange) {
  BoundedMaxHeap<int> heap(2);
  EXPECT_TRUE(heap.Push(5.0, 0));   // filling
  EXPECT_TRUE(heap.Push(3.0, 1));   // filling
  EXPECT_FALSE(heap.Push(9.0, 2));  // worse than current max
  EXPECT_TRUE(heap.Push(1.0, 3));   // displaces 5.0
  EXPECT_DOUBLE_EQ(heap.MaxKey(), 3.0);
}

TEST(BoundedHeapTest, EqualKeyDoesNotChange) {
  BoundedMaxHeap<int> heap(1);
  EXPECT_TRUE(heap.Push(2.0, 0));
  // A tie with the current max must not enter (Push uses strict <), so the
  // incremental utility in Algorithm 2 is stable under duplicate distances.
  EXPECT_FALSE(heap.Push(2.0, 1));
}

TEST(BoundedHeapTest, MatchesSortOnRandomStream) {
  Rng rng(3);
  BoundedMaxHeap<int> heap(8);
  std::vector<double> keys;
  for (int i = 0; i < 500; ++i) {
    double key = rng.NextDouble();
    keys.push_back(key);
    heap.Push(key, i);
  }
  std::sort(keys.begin(), keys.end());
  auto sorted = heap.SortedEntries();
  ASSERT_EQ(sorted.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(sorted[static_cast<size_t>(i)].key, keys[static_cast<size_t>(i)]);
  }
}

TEST(BoundedHeapTest, ClearEmpties) {
  BoundedMaxHeap<int> heap(4);
  heap.Push(1.0, 0);
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
}

// ---------------------------------------------------------------- matrix --

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(3, 2);
  EXPECT_EQ(m.Rows(), 3u);
  EXPECT_EQ(m.Cols(), 2u);
  m.At(1, 1) = 5.0f;
  EXPECT_FLOAT_EQ(m.Row(1)[1], 5.0f);
}

TEST(MatrixTest, AppendRowGrows) {
  Matrix m;
  std::vector<float> row = {1.0f, 2.0f, 3.0f};
  m.AppendRow(row);
  m.AppendRow(row);
  EXPECT_EQ(m.Rows(), 2u);
  EXPECT_EQ(m.Cols(), 3u);
}

TEST(MatrixTest, AppendRowsCopiesEveryRowInOrder) {
  Matrix a;
  a.AppendRows(Matrix());
  EXPECT_TRUE(a.Empty());
  Matrix b(2, 3);
  b.At(1, 2) = 7.0f;
  Matrix c(1, 3);
  c.At(0, 0) = -1.0f;
  a.AppendRows(b);
  a.AppendRows(c);
  EXPECT_EQ(a.Rows(), 3u);
  EXPECT_EQ(a.Cols(), 3u);
  EXPECT_FLOAT_EQ(a.At(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(a.At(2, 0), -1.0f);
}

TEST(MatrixTest, ScaleMultipliesEverything) {
  Matrix m(1, 2);
  m.At(0, 0) = 2.0f;
  m.At(0, 1) = -4.0f;
  m.Scale(0.5);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(0, 1), -2.0f);
}

// ----------------------------------------------------------------- csv ----

TEST(CsvTest, WritesRows) {
  std::string path = ::testing::TempDir() + "/knnshap_csv_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.Enabled());
    csv.Header({"a", "b"});
    csv.Row({1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::remove(path.c_str());
}

TEST(CsvTest, EmptyPathDisabled) {
  CsvWriter csv("");
  EXPECT_FALSE(csv.Enabled());
  csv.Row({1.0});  // must be a harmless no-op
}

// ----------------------------------------------------------------- cli ----

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--scale=2.5", "--csv", "out.csv", "--flag"};
  CommandLine cli(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.Scale(), 2.5);
  EXPECT_EQ(cli.CsvPath(), "out.csv");
  EXPECT_TRUE(cli.Has("flag"));
  EXPECT_EQ(cli.GetInt("missing", 7), 7);
}

TEST(CliTest, ParseIntTakesOnlyInRangeIntegers) {
  const char* argv[] = {"prog", "--a=12", "--b=-1", "--c=2.5", "--d=1e300",
                        "--e=2147483648", "--f=12abc", "--g="};
  CommandLine cli(8, const_cast<char**>(argv));
  int value = 0;
  std::string error;
  EXPECT_TRUE(cli.ParseInt("a", 0, 0, &value, &error));
  EXPECT_EQ(value, 12);
  EXPECT_TRUE(cli.ParseInt("b", 0, -1, &value, &error));
  EXPECT_EQ(value, -1);
  EXPECT_TRUE(cli.ParseInt("missing", 64, 0, &value, &error));
  EXPECT_EQ(value, 64);
  EXPECT_EQ(cli.GetInt("b", 0), -1);
  for (const char* name : {"b", "c", "d", "e", "f", "g"}) {
    value = 7;
    error.clear();
    EXPECT_FALSE(cli.ParseInt(name, 0, 0, &value, &error)) << name;
    EXPECT_EQ(value, 7) << name;
    EXPECT_EQ(error.rfind(std::string("--") + name + " must be an integer in [0, ", 0), 0u)
        << error;
  }
}

}  // namespace
// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, EveryWorkerRunningANestedHelpingLoopFinishes) {
  // Each worker enters a helping loop whose iterations run helping loops
  // of their own, all at once: the callers work their own loops, so no
  // worker can end up waiting on a helper that never runs.
  constexpr size_t kThreads = 4;
  ThreadPool pool(kThreads);
  std::atomic<size_t> started{0};
  std::atomic<size_t> iterations{0};
  std::atomic<size_t> finished{0};
  for (size_t t = 0; t < kThreads; ++t) {
    pool.Submit([&] {
      // Hold every worker until all of them are in, so the outer loops
      // overlap and no worker is idle to help.
      started.fetch_add(1);
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < kThreads && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      pool.ParallelForHelping(6, [&](size_t) {
        pool.ParallelForHelping(5, [&](size_t) { iterations.fetch_add(1); });
      });
      finished.fetch_add(1);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < kThreads && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(finished.load(), kThreads) << "a nested helping loop never finished";
  EXPECT_EQ(iterations.load(), kThreads * 6 * 5);
}

TEST(ThreadPoolTest, HelpingLoopRunsEveryIndexOnce) {
  ThreadPool pool(3);
  for (size_t count : {0u, 1u, 2u, 17u}) {
    std::vector<std::atomic<int>> hits(count);
    pool.ParallelForHelping(count, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1) << count;
  }
}

// ---------------------------------------------------------------------------
// LineReader
// ---------------------------------------------------------------------------

std::vector<std::string> ReadAllLines(const std::string& text) {
  std::istringstream in(text);
  LineReader reader(in.rdbuf());
  std::vector<std::string> lines;
  std::string_view line;
  while (reader.Next(&line)) lines.emplace_back(line);
  return lines;
}

std::vector<std::string> GetlineLines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(LineReaderTest, SplitsLikeGetline) {
  const std::string long_line(3 << 20, 'x');  // past the kept-buffer size
  for (const std::string& text :
       {std::string(), std::string("\n"), std::string("a"), std::string("a\n"),
        std::string("a\nb"), std::string("\n\nab\n\n"), std::string("one\r\ntwo\n"),
        "head\n" + long_line + "\ntail", long_line, long_line + "\n" + long_line + "\n"}) {
    EXPECT_EQ(ReadAllLines(text), GetlineLines(text)) << text.size() << " bytes";
  }
}

// Hands out its text a few bytes per underflow, like a pipe that delivers
// a line in pieces.
class DribbleBuf : public std::streambuf {
 public:
  DribbleBuf(std::string text, size_t piece) : text_(std::move(text)), piece_(piece) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    const size_t n = std::min(piece_, text_.size() - pos_);
    char* at = text_.data() + pos_;
    setg(at, at, at + n);
    pos_ += n;
    return traits_type::to_int_type(*at);
  }

 private:
  std::string text_;
  size_t piece_;
  size_t pos_ = 0;
};

TEST(LineReaderTest, LinesArrivingInPiecesComeOutWhole) {
  std::string text;
  std::vector<std::string> expected;
  for (int i = 0; i < 200; ++i) {
    expected.push_back(std::string(static_cast<size_t>(i * 37 % 1500), 'a' + i % 26));
    text += expected.back() + "\n";
  }
  for (size_t piece : {1u, 7u, 4096u, 70000u}) {
    DribbleBuf buf(text, piece);
    LineReader reader(&buf);
    std::vector<std::string> lines;
    std::string_view line;
    while (reader.Next(&line)) lines.emplace_back(line);
    EXPECT_EQ(lines, expected) << "piece " << piece;
  }
  // A long line that ends exactly at a piece boundary leaves nothing
  // unread, so the reader drops its grown buffer before the next line.
  const std::string long_line(3 << 20, 'y');
  DribbleBuf buf(long_line + "\nshort\n", long_line.size() + 1);
  LineReader reader(&buf);
  std::string_view line;
  ASSERT_TRUE(reader.Next(&line));
  EXPECT_EQ(line, long_line);
  ASSERT_TRUE(reader.Next(&line));
  EXPECT_EQ(line, "short");
  EXPECT_FALSE(reader.Next(&line));
}

}  // namespace knnshap
