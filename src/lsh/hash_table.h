// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// One LSH hash table: m p-stable hash functions whose concatenated values
// form the bucket key. Similar points share a bucket with probability
// f_h(c)^m.

#ifndef KNNSHAP_LSH_HASH_TABLE_H_
#define KNNSHAP_LSH_HASH_TABLE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "lsh/pstable.h"
#include "util/matrix.h"
#include "util/random.h"

namespace knnshap {

/// A single table of the LSH index.
class LshHashTable {
 public:
  /// `num_projections` hash functions of projection width `width` over
  /// `dim`-dimensional data.
  LshHashTable(size_t dim, size_t num_projections, double width, Rng* rng);

  /// Inserts row `id` with feature vector `x`.
  void Insert(std::span<const float> x, int id);

  /// Ids stored in the query's bucket (empty vector if none).
  const std::vector<int>& Candidates(std::span<const float> x) const;

  size_t NumProjections() const { return hashes_.size(); }

 private:
  uint64_t Key(std::span<const float> x) const;

  std::vector<PStableHash> hashes_;
  std::unordered_map<uint64_t, std::vector<int>> buckets_;
  std::vector<int> empty_;
};

}  // namespace knnshap

#endif  // KNNSHAP_LSH_HASH_TABLE_H_
