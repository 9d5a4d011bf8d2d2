// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/shard_worker.h"

#include "knn/selection.h"
#include "util/cancel.h"

namespace knnshap {

bool ShardCandidates(const Matrix& features, std::span<const float> query,
                     Metric metric, const CorpusNorms* norms, size_t row_begin,
                     size_t row_end, size_t r, std::span<double> dists,
                     std::vector<int>* run) {
  run->clear();
  ComputeDistancesRange(features, query, metric, norms, row_begin, row_end,
                        dists);
  if (CancelRequested()) return false;
  thread_local std::vector<int> local;
  PartialArgsortDistances(dists, r, &local);
  run->reserve(local.size());
  for (int i : local) run->push_back(i + static_cast<int>(row_begin));
  return true;
}

}  // namespace knnshap
