// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/wknn_shapley.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>

#include "core/utility.h"
#include "knn/ranking.h"
#include "obs/trace.h"
#include "util/binomial.h"
#include "util/cancel.h"
#include "util/common.h"

namespace knnshap {

// ---------------------------------------------------------------------------
// Coalition weights
// ---------------------------------------------------------------------------

WknnCoalitionWeights::WknnCoalitionWeights(int n, int k) : n_(n) {
  KNNSHAP_CHECK(n >= 1, "need at least one training point");
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  k_ = std::min(k, n);  // top-min(K,|S|) plays as K = n beyond the corpus

  start_.resize(static_cast<size_t>(k_));
  for (int t = 0; t < k_; ++t) {
    start_[static_cast<size_t>(t)] =
        1.0 / (static_cast<double>(n) * Choose(n - 1, t));
  }

  group_.assign(static_cast<size_t>(n) + 1, 0.0);
  tail_.assign(static_cast<size_t>(n) + 1, 0.0);
  if (k_ <= n - 1) {
    // GW(q) = sum_{u=0}^{n-q} binom(n-q, u) / (n binom(n-1, u+K)), evaluated
    // with the term-ratio recurrence so no intermediate binomial overflows:
    //   term(u+1)/term(u) = (n-q-u)/(u+1) * (u+K+1)/(n-1-u-K).
    for (int q = 2; q <= n; ++q) {
      double term = 1.0 / (static_cast<double>(n) * Choose(n - 1, k_));
      double total = term;
      for (int u = 0; u < n - q && u + k_ + 1 <= n - 1; ++u) {
        term *= static_cast<double>(n - q - u) / static_cast<double>(u + 1);
        term *= static_cast<double>(u + k_ + 1) /
                static_cast<double>(n - 1 - u - k_);
        total += term;
      }
      group_[static_cast<size_t>(q)] = total;
    }
    // Tail mass of the displaced-element groups beyond rank q: the group at
    // rank q' holds binom(q'-2, K-1) companion choices of weight GW(q').
    for (int q = n - 1; q >= 0; --q) {
      tail_[static_cast<size_t>(q)] =
          tail_[static_cast<size_t>(q) + 1] +
          Choose(q - 1, k_ - 1) * group_[static_cast<size_t>(q) + 1];
    }
  }
}

int WknnCoalitionWeights::TruncationRank(double approx_error) const {
  if (approx_error <= 0.0) return n_;
  for (int q = 1; q <= n_; ++q) {
    if (tail_[static_cast<size_t>(q)] <= approx_error) return q;
  }
  return n_;
}

// ---------------------------------------------------------------------------
// Query context: ranking + discretization
// ---------------------------------------------------------------------------

WknnQueryContext MakeWknnQueryContextFromRanking(std::vector<int> order,
                                                 std::span<const double> dists,
                                                 std::span<const int> labels,
                                                 int test_label,
                                                 const WknnShapleyOptions& options) {
  const size_t n = labels.size();
  KNNSHAP_CHECK(n >= 1, "empty training set");
  KNNSHAP_CHECK(order.size() == n && dists.size() == n,
                "full ranking and row-indexed distances required");
  KNNSHAP_CHECK(options.weight_bits >= 1 && options.weight_bits <= 12,
                "weight_bits must be in [1, 12]");

  WknnQueryContext ctx;
  ctx.order = std::move(order);
  ctx.rank_of.resize(n);
  ctx.correct.resize(n);
  ctx.raw.resize(n);
  ctx.level.resize(n);
  for (size_t rank = 0; rank < n; ++rank) {
    const int row = ctx.order[rank];
    ctx.rank_of[static_cast<size_t>(row)] = static_cast<int>(rank);
    ctx.correct[rank] = labels[static_cast<size_t>(row)] == test_label ? 1 : 0;
    ctx.raw[rank] =
        RawKernelWeight(dists[static_cast<size_t>(row)], options.weights);
  }
  // Snap to the integer grid {1, ..., 2^b - 1} after scaling by the largest
  // finite raw weight. Normalization makes the scale cancel (the utility is
  // a level-sum ratio), so only the relative grid placement matters. Tiny
  // weights clamp to level 1 — the grid has no zero, mirroring the positive
  // weights ComputeWeights produces.
  const int levels = (1 << options.weight_bits) - 1;
  double vmax = 0.0;
  for (double v : ctx.raw) {
    if (std::isfinite(v) && v > vmax) vmax = v;
  }
  for (size_t rank = 0; rank < n; ++rank) {
    const double v = ctx.raw[rank];
    int level = levels;  // non-finite (infinite-kernel) weights dominate
    if (std::isfinite(v)) {
      level = vmax > 0.0
                  ? static_cast<int>(std::llround(v / vmax * levels))
                  : 1;  // degenerate all-zero kernel: equal weights
    }
    ctx.level[rank] = std::clamp(level, 1, levels);
  }
  return ctx;
}

// ---------------------------------------------------------------------------
// Discretized utility + discretization bound (oracle/test helpers)
// ---------------------------------------------------------------------------

double WknnDiscretizedUtility(const WknnQueryContext& context,
                              std::span<const int> subset, int k) {
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  if (subset.empty()) return 0.0;
  std::vector<int> ranks;
  ranks.reserve(subset.size());
  for (int row : subset) {
    ranks.push_back(context.rank_of[static_cast<size_t>(row)]);
  }
  // The top-min(K, |S|) ranks, in any order: the sums below commute.
  const size_t top = std::min(static_cast<size_t>(k), ranks.size());
  std::nth_element(ranks.begin(), ranks.begin() + static_cast<long>(top) - 1,
                   ranks.end());
  long a = 0;
  long b = 0;
  for (size_t i = 0; i < top; ++i) {
    const size_t rank = static_cast<size_t>(ranks[i]);
    b += context.level[rank];
    if (context.correct[rank]) a += context.level[rank];
  }
  return static_cast<double>(a) / static_cast<double>(b);
}

double WknnDiscretizationBound(const WknnQueryContext& context, int k) {
  const int n = static_cast<int>(context.order.size());
  const int kk = std::min(k, n);
  KNNSHAP_CHECK(kk >= 1, "k must be >= 1");
  KNNSHAP_CHECK(Choose(n, kk) <= 2e7,
                "discretization bound enumerates binom(N, K) top-sets; "
                "use oracle-sized fixtures");
  double worst = 0.0;
  // Every subset of <= K points is the top-K set of some coalition, so the
  // bound enumerates them all with running (continuous, discrete) sums.
  std::function<void(int, int, double, double, long, long)> visit =
      [&](int next, int depth, double araw, double braw, long a, long b) {
        if (depth > 0) {
          const double diff = std::fabs(
              araw / braw - static_cast<double>(a) / static_cast<double>(b));
          worst = std::max(worst, diff);
        }
        if (depth == kk) return;
        for (int rank = next; rank < n; ++rank) {
          const size_t idx = static_cast<size_t>(rank);
          const double raw = context.raw[idx];
          const int level = context.level[idx];
          visit(rank + 1, depth + 1,
                context.correct[idx] ? araw + raw : araw, braw + raw,
                context.correct[idx] ? a + level : a, b + level);
        }
      };
  visit(0, 0, 0.0, 0.0, 0, 0);
  // Each Shapley value averages marginals nu(S u i) - nu(S); a uniform
  // utility perturbation of eps moves every marginal by at most 2 eps.
  return 2.0 * worst;
}

// ---------------------------------------------------------------------------
// The quadratic counting recursion
// ---------------------------------------------------------------------------

namespace {

/// Per-query cap on count-table entries (~64 MB of doubles per table, a
/// few tables resident per in-flight query). One definition feeds both the
/// refusable-request check (WknnTableBudget) and the internal invariant in
/// CountTables.
constexpr double kWknnTableBudgetStates = 8e6;

/// Count tables live on the triangle 0 <= A <= B <= wmax, rows indexed by
/// companion count j. States of one B are contiguous, so the knapsack
/// updates below stream rows.
inline size_t TriIndex(int b, int a) {
  return static_cast<size_t>(b) * static_cast<size_t>(b + 1) / 2 +
         static_cast<size_t>(a);
}

/// Entry count of one (size, A, B) table for the effective K and level
/// count, in double so oversized shapes cannot overflow before the check.
double TableStates(int k_eff, int levels) {
  const double wmax = static_cast<double>(k_eff - 1) * levels;
  return static_cast<double>(k_eff) * ((wmax + 1.0) * (wmax + 2.0) / 2.0);
}

class CountTables {
 public:
  CountTables(int k, int wmax)
      : k_(k), wmax_(wmax),
        row_size_(TriIndex(wmax, wmax) + 1) {
    // Internal invariant only: every engine/serve/CLI request is screened
    // by WknnTableBudget (the weighted-fast schema precondition) before it
    // can reach this recursion, so tripping here means a direct core
    // caller skipped the budget check.
    KNNSHAP_CHECK(static_cast<double>(k_) * static_cast<double>(row_size_) <=
                      kWknnTableBudgetStates,
                  "weighted-fast count tables too large; lower k or "
                  "weight_bits (see WknnTableBudget)");
  }

  size_t Size() const { return static_cast<size_t>(k_) * row_size_; }
  size_t RowSize() const { return row_size_; }

  /// dp[j] += shift(dp[j-1]) for one inserted element (correct bit c,
  /// level w): the standard counting-knapsack update, descending j so the
  /// source row is still the pre-insertion state.
  void Insert(std::vector<double>* dp, int c, int w) const {
    const int aw = c * w;
    for (int j = k_ - 1; j >= 1; --j) {
      const double* src = dp->data() + static_cast<size_t>(j - 1) * row_size_;
      double* dst = dp->data() + static_cast<size_t>(j) * row_size_;
      for (int b = wmax_ - w; b >= 0; --b) {
        const double* srow = src + TriIndex(b, 0);
        double* drow = dst + TriIndex(b + w, aw);
        for (int a = 0; a <= b; ++a) {
          if (srow[a] != 0.0) drow[a] += srow[a];
        }
      }
    }
  }

  /// out = dp with one element (c, w) deleted — the inverse of Insert,
  /// ascending j so out[j-1] is already the deleted state. Counts are
  /// integers held in doubles, so the subtraction is exact.
  void Remove(const std::vector<double>& dp, int c, int w,
              std::vector<double>* out) const {
    std::copy(dp.begin(), dp.begin() + static_cast<ptrdiff_t>(row_size_),
              out->begin());
    const int aw = c * w;
    for (int j = 1; j <= k_ - 1; ++j) {
      const double* full = dp.data() + static_cast<size_t>(j) * row_size_;
      const double* prev = out->data() + static_cast<size_t>(j - 1) * row_size_;
      double* dst = out->data() + static_cast<size_t>(j) * row_size_;
      for (int b = 0; b <= wmax_; ++b) {
        for (int a = 0; a <= b; ++a) {
          double count = full[TriIndex(b, a)];
          const int pb = b - w;
          const int pa = a - aw;
          if (pb >= 0 && pa >= 0 && pa <= pb) count -= prev[TriIndex(pb, pa)];
          dst[TriIndex(b, a)] = count;
        }
      }
    }
  }

 private:
  int k_;
  int wmax_;
  size_t row_size_;
};

}  // namespace

Status WknnTableBudget(int n, int k, int weight_bits) {
  if (n < 1 || k < 1 || weight_bits < 1 || weight_bits > 12) {
    return Status::InvalidArgument(
        "weighted-fast needs n >= 1, k >= 1 and weight_bits in [1, 12]", "k");
  }
  const int k_eff = std::min(k, n);
  const int levels = (1 << weight_bits) - 1;
  if (TableStates(k_eff, levels) > kWknnTableBudgetStates) {
    return Status::InvalidArgument(
        "'k' too large for weighted-fast at weight_bits=" +
            std::to_string(weight_bits) +
            " on this corpus (count tables grow as K^3 4^bits; lower k or "
            "weight_bits)",
        "k");
  }
  return Status::Ok();
}

std::vector<double> WknnShapleyFromContext(const WknnQueryContext& context,
                                           const WknnShapleyOptions& options,
                                           const WknnCoalitionWeights* shared) {
  const WknnQueryContext& ctx = context;
  const int n = static_cast<int>(ctx.order.size());
  KNNSHAP_CHECK(options.approx_error >= 0.0, "approx_error must be >= 0");
  std::optional<WknnCoalitionWeights> local;
  if (shared == nullptr) {
    local.emplace(n, options.k);
    shared = &*local;
  }
  KNNSHAP_CHECK(shared->N() == n && shared->K() == std::min(options.k, n),
                "coalition weights built for a different (N, K)");

  // The quadratic DP over count tables — the weighted-fast "recursion".
  ScopedPhase recursion_span(Phase::kRecursion);
  const int k = shared->K();
  const int levels = (1 << options.weight_bits) - 1;
  const int wmax = (k - 1) * levels;  // sums of at most K-1 companion levels
  const CountTables tables(k, wmax);
  const size_t row_size = tables.RowSize();

  std::vector<double> sv(static_cast<size_t>(n), 0.0);

  // --- Coalitions of size t <= K-1: everything is in the top-K of both S
  // and S u {i}. One global DP counts t-subsets of all points by level
  // sums; deleting i yields the per-point tables.
  std::vector<double> all(tables.Size(), 0.0);
  all[TriIndex(0, 0)] = 1.0;
  for (int rank = 0; rank < n; ++rank) {
    tables.Insert(&all, ctx.correct[static_cast<size_t>(rank)],
                  ctx.level[static_cast<size_t>(rank)]);
  }
  std::vector<double> without(tables.Size(), 0.0);
  const int tmax = std::min(k - 1, n - 1);
  for (int r = 1; r <= n; ++r) {
    // Per-rank cancellation poll (each r is one O(K wmax^2) DP row); the
    // partial sv is right-sized and discarded by the engine.
    if (CancelRequested()) return sv;
    const int ci = ctx.correct[static_cast<size_t>(r - 1)];
    const int wi = ctx.level[static_cast<size_t>(r - 1)];
    tables.Remove(all, ci, wi, &without);
    double acc = 0.0;
    for (int t = 0; t <= tmax; ++t) {
      const double* row = without.data() + static_cast<size_t>(t) * row_size;
      double sum = 0.0;
      for (int b = 0; b <= wmax; ++b) {
        const double* srow = row + TriIndex(b, 0);
        for (int a = 0; a <= b; ++a) {
          const double count = srow[a];
          if (count == 0.0) continue;
          const double with_i =
              static_cast<double>(a + ci * wi) / static_cast<double>(b + wi);
          const double base =
              b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
          sum += count * (with_i - base);
        }
      }
      acc += shared->StartWeight(t) * sum;
    }
    sv[static_cast<size_t>(ctx.order[static_cast<size_t>(r - 1)])] += acc;
  }

  // --- Coalitions of size t >= K, grouped by the displaced element e at
  // rank q: the K-1 shared top companions range over ranks < q (minus i),
  // counted by a prefix DP that grows one rank per step of the q loop.
  // Truncation: groups beyond rank q* carry total Shapley weight
  // TailMass(q*) <= approx_error and marginals in [-1, 1], so dropping
  // them keeps every value within the budget.
  const int q_star = shared->TruncationRank(options.approx_error);
  if (k < n) {
    std::vector<double> prefix(tables.Size(), 0.0);  // ranks 1..r-1
    prefix[TriIndex(0, 0)] = 1.0;
    std::vector<double> between(tables.Size());
    for (int r = 1; r <= n; ++r) {
      if (CancelRequested()) return sv;
      const int ci = ctx.correct[static_cast<size_t>(r - 1)];
      const int wi = ctx.level[static_cast<size_t>(r - 1)];
      if (r < q_star) {
        std::copy(prefix.begin(), prefix.end(), between.begin());
        double acc = 0.0;
        for (int q = r + 1; q <= q_star; ++q) {
          // Candidates for the K-1 companions: ranks < q except r. The
          // element at rank q-1 enters the candidate pool before rank q is
          // considered as the displaced element.
          if (q >= r + 2) {
            tables.Insert(&between, ctx.correct[static_cast<size_t>(q - 2)],
                          ctx.level[static_cast<size_t>(q - 2)]);
          }
          if (q - 2 < k - 1) continue;  // fewer than K-1 candidates
          const double gw = shared->GroupWeight(q);
          if (gw == 0.0) continue;
          const int ce = ctx.correct[static_cast<size_t>(q - 1)];
          const int we = ctx.level[static_cast<size_t>(q - 1)];
          const double* row =
              between.data() + static_cast<size_t>(k - 1) * row_size;
          double sum = 0.0;
          for (int b = 0; b <= wmax; ++b) {
            const double* srow = row + TriIndex(b, 0);
            for (int a = 0; a <= b; ++a) {
              const double count = srow[a];
              if (count == 0.0) continue;
              const double with_i = static_cast<double>(a + ci * wi) /
                                    static_cast<double>(b + wi);
              const double with_e = static_cast<double>(a + ce * we) /
                                    static_cast<double>(b + we);
              sum += count * (with_i - with_e);
            }
          }
          acc += gw * sum;
        }
        sv[static_cast<size_t>(ctx.order[static_cast<size_t>(r - 1)])] += acc;
      }
      tables.Insert(&prefix, ci, wi);
    }
  }
  return sv;
}

std::vector<double> WknnShapley(const Dataset& train, const Dataset& test,
                                const WknnShapleyOptions& options,
                                bool parallel) {
  const size_t n = train.Size();
  KNNSHAP_CHECK(train.HasLabels(), "weighted-fast: labeled corpus required");
  const LocalRanking ranking(&train.features, options.metric);
  const WknnCoalitionWeights shared(static_cast<int>(n), options.k);
  return MeanOverQueries(test.Size(), n, parallel, [&](size_t j) {
    std::vector<double> dists;
    std::vector<int> order;
    ranking.Rank(test.features.Row(j), n, &dists, &order);
    const int label = test.HasLabels() ? test.labels[j] : 0;
    return WknnShapleyFromContext(
        MakeWknnQueryContextFromRanking(std::move(order), dists, train.labels, label,
                                        options),
        options, &shared);
  });
}

}  // namespace knnshap
