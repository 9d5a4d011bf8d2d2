// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "knn/neighbors.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "knn/selection.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace knnshap {

namespace {

// Per-thread distance scratch: the valuation engine drives many queries
// per pool thread, and a fresh N-double buffer per query would dominate
// small-corpus requests. ResizeScratch frees the buffer again once a
// request is far smaller than the retained high-water mark.
std::vector<double>& DistanceScratch(size_t rows) {
  static thread_local std::vector<double> scratch;
  ResizeScratch(&scratch, rows);
  return scratch;
}

// IntraQueryOptions storage, split into atomics so readers on the hot path
// never take a lock (tearing between the two fields is harmless — both
// orderings of a torn update are valid configurations).
std::atomic<size_t> g_intra_min_rows{IntraQueryOptions{}.min_rows};
std::atomic<size_t> g_intra_block_rows{IntraQueryOptions{}.block_rows};

// Top-min(r, n) of `dists` by (distance, index): serial streaming selection
// below the intra-query threshold, per-block selection with an exact k-way
// merge of the blocks' runs above it. Either way bit-identical to the
// same-length ArgsortDistances prefix.
void BlockedTopR(std::span<const double> dists, size_t r,
                 std::vector<int>* order) {
  const size_t n = dists.size();
  r = std::min(r, n);
  const IntraQueryOptions opt = GetIntraQueryOptions();
  ThreadPool& pool = ThreadPool::Shared();
  if (n < opt.min_rows || pool.NumThreads() <= 1 || r >= n) {
    PartialArgsortDistances(dists, r, order);
    return;
  }
  const size_t block = opt.block_rows;
  const size_t num_blocks = (n + block - 1) / block;
  std::vector<std::vector<int>> block_tops(num_blocks);
  pool.ParallelForHelping(num_blocks, [&](size_t b) {
    const size_t begin = b * block;
    const size_t end = std::min(n, begin + block);
    std::vector<int>& top = block_tops[b];
    // Block-local indices order identically to their global counterparts
    // (the offset is monotone), so the per-block exact top-r is the
    // restriction of the global order to the block: an ascending run.
    PartialArgsortDistances(dists.subspan(begin, end - begin), r, &top);
    for (int& idx : top) idx += static_cast<int>(begin);
  });
  MergeSortedCandidateRuns(dists, block_tops, r, order);
}

}  // namespace

void SetIntraQueryOptions(const IntraQueryOptions& options) {
  g_intra_min_rows.store(options.min_rows, std::memory_order_relaxed);
  g_intra_block_rows.store(std::max<size_t>(1, options.block_rows),
                           std::memory_order_relaxed);
}

IntraQueryOptions GetIntraQueryOptions() {
  IntraQueryOptions options;
  options.min_rows = g_intra_min_rows.load(std::memory_order_relaxed);
  options.block_rows = g_intra_block_rows.load(std::memory_order_relaxed);
  return options;
}

void SingleQueryDistances(const Matrix& train, std::span<const float> query,
                          Metric metric, const CorpusNorms* norms,
                          std::span<double> out) {
  // Wall-clock distance span on the calling thread; helper threads run
  // untraced (the span is the query's elapsed time, not CPU time).
  ScopedPhase span(Phase::kDistance);
  const size_t rows = train.Rows();
  const IntraQueryOptions opt = GetIntraQueryOptions();
  ThreadPool& pool = ThreadPool::Shared();
  if (rows < opt.min_rows || pool.NumThreads() <= 1) {
    ComputeDistances(train, query, metric, norms, out);
    return;
  }
  const size_t block = opt.block_rows;
  const size_t num_blocks = (rows + block - 1) / block;
  const CancelToken* token = ActiveCancelToken();
  pool.ParallelForHelping(num_blocks, [&, token](size_t b) {
    // Helpers re-establish the query's cancel token (it is thread-local)
    // and skip their block once it fires: the buffer keeps stale-but-
    // defined values and the caller's own post-pass poll discards the
    // result.
    CancelActivation activate(token);
    if (CancelRequested()) return;
    const size_t begin = b * block;
    const size_t end = std::min(rows, begin + block);
    ComputeDistancesRange(train, query, metric, norms, begin, end,
                          out.subspan(begin, end - begin));
  });
}

// Distance/sort spans are recorded against the thread-local active trace
// (null — and free — except inside an explicitly traced request). Only the
// per-query entry points are instrumented; TopKAmongRows is called an
// exponential number of times by the enumeration baselines and must stay
// span-free.

std::vector<double> AllDistances(const Matrix& train, std::span<const float> query,
                                 Metric metric, const CorpusNorms* norms) {
  ScopedPhase span(Phase::kDistance);
  std::vector<double> dists(train.Rows());
  ComputeDistances(train, query, metric, norms, dists);
  return dists;
}

void RankByDistance(const Matrix& train, std::span<const float> query, size_t r,
                    Metric metric, const CorpusNorms* norms,
                    std::span<double> dists, std::vector<int>* order) {
  const size_t rows = train.Rows();
  r = std::min(r, rows);
  if (r == 0) {
    order->clear();
    return;
  }
  SingleQueryDistances(train, query, metric, norms, dists);
  // Cancellation poll between the distance pass and the ordering. The
  // early out must stay structurally valid — downstream recursions
  // KNNSHAP_CHECK a right-sized ranking — so it returns the identity
  // prefix; the engine discards the garbage result once it observes the
  // expired token.
  if (CancelRequested()) {
    order->resize(r);
    std::iota(order->begin(), order->end(), 0);
    return;
  }
  if (r == rows) {
    ScopedPhase span(Phase::kSort);
    ArgsortDistances(dists.first(rows), order);
  } else {
    ScopedPhase span(Phase::kSelect);
    BlockedTopR(dists.first(rows), r, order);
  }
}

std::vector<int> ArgsortByDistance(const Matrix& train, std::span<const float> query,
                                   Metric metric, const CorpusNorms* norms) {
  std::vector<int> order;
  RankByDistance(train, query, train.Rows(), metric, norms,
                 DistanceScratch(train.Rows()), &order);
  return order;
}

void TopKNeighborsInto(const Matrix& train, std::span<const float> query,
                       size_t k, Metric metric, const CorpusNorms* norms,
                       std::vector<Neighbor>* out) {
  out->clear();
  std::vector<double>& dists = DistanceScratch(train.Rows());
  static thread_local std::vector<int> order;
  RankByDistance(train, query, k, metric, norms, dists, &order);
  out->reserve(order.size());
  for (int pos : order) {
    out->push_back({pos, dists[static_cast<size_t>(pos)]});
  }
}

std::vector<Neighbor> TopKNeighbors(const Matrix& train, std::span<const float> query,
                                    size_t k, Metric metric, const CorpusNorms* norms) {
  std::vector<Neighbor> out;
  TopKNeighborsInto(train, query, k, metric, norms, &out);
  return out;
}

void ForEachBatchedTopK(
    const Matrix& train, const Matrix& queries, size_t k, Metric metric,
    const CorpusNorms* norms,
    const std::function<void(size_t, const std::vector<Neighbor>&)>& fn) {
  const size_t rows = train.Rows();
  const size_t num_queries = queries.Rows();
  k = std::min(k, rows);
  if (num_queries == 0 || k == 0) {
    const std::vector<Neighbor> empty;
    for (size_t j = 0; j < num_queries; ++j) fn(j, empty);
    return;
  }
  // Chunk so the distance buffer stays <= ~32 MB however large the corpus.
  // The buffer is call-local (reused across chunks) rather than
  // thread_local: `fn` is caller code and may legally re-enter this
  // function on the same thread.
  constexpr size_t kMaxBufferDoubles = size_t{4} << 20;
  const size_t chunk =
      std::max<size_t>(1, std::min<size_t>(16, kMaxBufferDoubles / rows));
  std::vector<double> buffer;
  Matrix block;
  for (size_t q0 = 0; q0 < num_queries; q0 += chunk) {
    // Per-chunk cancellation poll: remaining queries get an empty
    // neighbor list (right-shaped for `fn`; the request's result is
    // discarded by the engine anyway).
    if (CancelRequested()) {
      const std::vector<Neighbor> empty;
      for (size_t j = q0; j < num_queries; ++j) fn(j, empty);
      return;
    }
    const size_t q1 = std::min(num_queries, q0 + chunk);
    block = Matrix(q1 - q0, queries.Cols());
    for (size_t j = q0; j < q1; ++j) {
      auto src = queries.Row(j);
      std::copy(src.begin(), src.end(), block.MutableRow(j - q0).begin());
    }
    buffer.resize((q1 - q0) * rows);
    {
      ScopedPhase span(Phase::kDistance);
      ComputeDistanceMatrix(train, block, metric, norms, buffer);
    }
    for (size_t j = q0; j < q1; ++j) {
      std::vector<Neighbor> top;
      {
        ScopedPhase span(Phase::kSelect);
        top = SelectTopK(
            std::span<const double>(buffer.data() + (j - q0) * rows, rows), {}, k);
      }
      fn(j, top);
    }
  }
}

std::vector<Neighbor> TopKAmongRows(const Matrix& train, std::span<const int> rows,
                                    std::span<const float> query, size_t k,
                                    Metric metric) {
  KNNSHAP_CHECK(query.size() == train.Cols(), "query dimension mismatch");
  std::vector<Neighbor> all;
  all.reserve(rows.size());
  for (int row : rows) {
    all.push_back({row, internal::DistanceUnchecked(
                            train.Row(static_cast<size_t>(row)).data(), query.data(),
                            query.size(), metric)});
  }
  size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep), all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      if (a.distance != b.distance) return a.distance < b.distance;
                      return a.index < b.index;
                    });
  all.resize(keep);
  return all;
}

BruteForceIndex::BruteForceIndex(const Matrix* train, Metric metric)
    : train_(train), metric_(metric) {
  KNNSHAP_CHECK(train != nullptr, "null training matrix");
  norms_ = CorpusNorms(*train);
}

std::vector<Neighbor> BruteForceIndex::Query(std::span<const float> query,
                                             size_t k) const {
  return TopKNeighbors(*train_, query, k, metric_, &norms_);
}

}  // namespace knnshap
