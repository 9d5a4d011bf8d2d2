// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Exact nearest-neighbor primitives over a Dataset:
//  * ArgsortByDistance — the full ascending ordering Algorithm 1 needs;
//  * TopKNeighbors     — partial selection when only K* neighbors matter
//                        (the truncated recursion of Theorem 2);
//  * BruteForceIndex   — convenience wrapper caching the training matrix
//                        and its per-row norms.
// Distances default to L2, matching the paper. All entry points run
// through the batched kernels of knn/distance_kernel.h: distances come
// from the runtime-dispatched SIMD/blocked path (or the scalar reference
// when selected), and orderings from the packed-key sort, which breaks
// ties by row index by construction. Callers that value many queries
// against one corpus should build a CorpusNorms once and pass it in so
// the per-row norm work amortizes.

#ifndef KNNSHAP_KNN_NEIGHBORS_H_
#define KNNSHAP_KNN_NEIGHBORS_H_

#include <functional>
#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "knn/distance_kernel.h"
#include "knn/metric.h"

namespace knnshap {

/// A retrieved neighbor: training-row index plus its distance to the query.
struct Neighbor {
  int index;
  double distance;
};

/// Tuning knobs for intra-query block parallelism. The engine spreads a
/// request's *queries* over the pool; one huge query against a
/// million-row corpus would otherwise run serial. At or above `min_rows`
/// rows the single-query entry points shard the distance pass (and the
/// top-R selection, on the partial path) into `block_rows`-row blocks
/// drained cooperatively by the shared pool — the same
/// ThreadPool::ParallelForHelping loop, nested inside the per-query one,
/// so a query's blocks take whatever workers the other queries leave
/// idle. Results are bit-identical to
/// the serial path at any block size (per-block exact top-R + exact merge).
struct IntraQueryOptions {
  size_t min_rows = size_t{1} << 18;    ///< Stay serial below this corpus size.
  size_t block_rows = size_t{1} << 16;  ///< Rows per block.
};

/// Process-wide intra-query options (tests shrink the thresholds to cover
/// the blocked path on small fixtures). block_rows is clamped to >= 1.
void SetIntraQueryOptions(const IntraQueryOptions& options);
IntraQueryOptions GetIntraQueryOptions();

/// Distances from `query` to every training row, written to `out` (length
/// >= train.Rows()), sharded across the pool per IntraQueryOptions.
/// Records the kDistance span on the calling thread (wall clock).
void SingleQueryDistances(const Matrix& train, std::span<const float> query,
                          Metric metric, const CorpusNorms* norms,
                          std::span<double> out);

/// The per-query ranking behind every exact valuation path: distances
/// from `query` to every training row into `dists` (length >=
/// train.Rows()), then the first min(r, N) entries of the ascending
/// (distance, index) order into *order — the full argsort (kSort span)
/// when r >= N, else block-parallel streaming top-R selection (kSelect
/// span). r == 0 runs no distance pass. On cancellation after the
/// distance pass the order degrades to an identity prefix (the engine
/// discards the result).
void RankByDistance(const Matrix& train, std::span<const float> query, size_t r,
                    Metric metric, const CorpusNorms* norms,
                    std::span<double> dists, std::vector<int>* order);

/// Indices of all training rows sorted by ascending distance to `query`
/// (ties broken by index, making results deterministic).
std::vector<int> ArgsortByDistance(const Matrix& train, std::span<const float> query,
                                   Metric metric = Metric::kL2,
                                   const CorpusNorms* norms = nullptr);

/// The k nearest rows to `query`, ascending by distance. k is clamped to
/// the number of rows. One batched distance pass plus O(N + k log k)
/// packed-key selection.
std::vector<Neighbor> TopKNeighbors(const Matrix& train, std::span<const float> query,
                                    size_t k, Metric metric = Metric::kL2,
                                    const CorpusNorms* norms = nullptr);

/// Scratch-reusing TopKNeighbors: appends into *out (cleared first).
void TopKNeighborsInto(const Matrix& train, std::span<const float> query,
                       size_t k, Metric metric, const CorpusNorms* norms,
                       std::vector<Neighbor>* out);

/// Calls fn(query_row, neighbors) for every row of `queries`, retrieving
/// the k nearest training rows through the query-block × corpus batched
/// kernel. Queries are processed in chunks sized so the distance buffer
/// stays bounded (~32 MB); neighbor lists are bit-identical to per-query
/// TopKNeighbors. The batch evaluation path for classifier accuracy /
/// regressor MSE style sweeps.
void ForEachBatchedTopK(
    const Matrix& train, const Matrix& queries, size_t k, Metric metric,
    const CorpusNorms* norms,
    const std::function<void(size_t, const std::vector<Neighbor>&)>& fn);

/// Top-min(k, |rows|) of the listed training rows by distance to `query`,
/// ascending, ties broken by row id. The subset-utility evaluator behind
/// Eq (5)/(25)-(27): the enumeration oracle and Monte-Carlo baselines call
/// it O(2^N) times, so the dimension check is hoisted out of the per-row
/// loop.
std::vector<Neighbor> TopKAmongRows(const Matrix& train, std::span<const int> rows,
                                    std::span<const float> query, size_t k,
                                    Metric metric = Metric::kL2);

/// Distances from `query` to every training row.
std::vector<double> AllDistances(const Matrix& train, std::span<const float> query,
                                 Metric metric = Metric::kL2,
                                 const CorpusNorms* norms = nullptr);

/// Thin exact-search index over a training matrix. Precomputes row norms
/// at construction so every query hits the fast kernel path.
class BruteForceIndex {
 public:
  explicit BruteForceIndex(const Matrix* train, Metric metric = Metric::kL2);

  std::vector<Neighbor> Query(std::span<const float> query, size_t k) const;

  const Matrix& Train() const { return *train_; }
  const CorpusNorms& Norms() const { return norms_; }

 private:
  const Matrix* train_;
  Metric metric_;
  CorpusNorms norms_;
};

}  // namespace knnshap

#endif  // KNNSHAP_KNN_NEIGHBORS_H_
