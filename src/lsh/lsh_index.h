// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Multi-table LSH index for approximate K-NN retrieval (Sec 3.2 / Theorem
// 3). A query gathers the union of its buckets across tables and exactly
// re-ranks those candidates; with the table count from Theorem 3 the true K
// nearest neighbors are all retrieved with probability >= 1 - delta.

#ifndef KNNSHAP_LSH_LSH_INDEX_H_
#define KNNSHAP_LSH_LSH_INDEX_H_

#include <span>
#include <vector>

#include "lsh/hash_table.h"
#include "knn/distance_kernel.h"
#include "knn/neighbors.h"
#include "util/matrix.h"
#include "util/random.h"

namespace knnshap {

/// LSH index parameters; see lsh/tuning.h for how to derive them from the
/// dataset's relative contrast per Theorem 3.
struct LshConfig {
  size_t num_projections = 8;  ///< m hash functions per table.
  size_t num_tables = 16;      ///< l tables.
  double width = 4.0;          ///< Projection width r of the p-stable hash.
  uint64_t seed = 7;
};

/// Per-query retrieval statistics, used by the Figure 9 study.
struct LshQueryStats {
  size_t candidates = 0;      ///< Distinct points whose distance was computed.
  size_t returned = 0;        ///< Neighbors actually returned (<= k).
};

/// Approximate K-NN index over a training matrix.
class LshIndex {
 public:
  /// Builds `config.num_tables` hash tables over all rows of `train`
  /// (matrix must outlive the index).
  LshIndex(const Matrix* train, const LshConfig& config);

  /// Approximate k nearest neighbors of `query`, ascending by true L2
  /// distance. May return fewer than k if too few candidates collide.
  std::vector<Neighbor> Query(std::span<const float> query, size_t k,
                              LshQueryStats* stats = nullptr) const;

  /// Fraction of the true k nearest neighbors that this index retrieves
  /// for `query` (computed against brute force; used by tests and Fig 9).
  double Recall(std::span<const float> query, size_t k) const;

  const LshConfig& Config() const { return config_; }

 private:
  const Matrix* train_;
  LshConfig config_;
  CorpusNorms norms_;  // per-row norms for the batched candidate rescoring
  std::vector<LshHashTable> tables_;
};

}  // namespace knnshap

#endif  // KNNSHAP_LSH_LSH_INDEX_H_
