// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "lsh/lsh_index.h"

#include <algorithm>
#include <cstdint>

#include "util/common.h"

namespace knnshap {

LshIndex::LshIndex(const Matrix* train, const LshConfig& config)
    : train_(train), config_(config) {
  KNNSHAP_CHECK(train != nullptr, "null training matrix");
  KNNSHAP_CHECK(config.num_tables >= 1, "need at least one table");
  norms_ = CorpusNorms(*train);
  Rng rng(config.seed);
  tables_.reserve(config.num_tables);
  for (size_t t = 0; t < config.num_tables; ++t) {
    tables_.emplace_back(train->Cols(), config.num_projections, config.width, &rng);
  }
  for (size_t t = 0; t < config.num_tables; ++t) {
    for (size_t i = 0; i < train->Rows(); ++i) {
      tables_[t].Insert(train->Row(i), static_cast<int>(i));
    }
  }
}

namespace {

// Epoch-stamped visited marks, reused across queries on the same thread:
// the valuation engine drives many queries per thread, and a fresh N-byte
// bitmap per query would dominate small-candidate lookups. Bumping the
// epoch invalidates all marks in O(1); the buffer is only rezeroed when the
// corpus size grows or the epoch counter wraps.
thread_local std::vector<uint32_t> tls_visited_stamp;
thread_local uint32_t tls_visited_epoch = 0;

uint32_t NextVisitedEpoch(size_t rows) {
  // Shrink when the buffer is far larger than the active index (e.g. a
  // long-lived server that once held a huge corpus), so pool threads do
  // not retain the high-water mark forever. The 64 KiB floor keeps small
  // indexes from thrashing the allocation.
  constexpr size_t kShrinkFloor = 1 << 16;
  const bool oversized =
      tls_visited_stamp.size() > kShrinkFloor && tls_visited_stamp.size() > 4 * rows;
  if (tls_visited_stamp.size() < rows || oversized ||
      tls_visited_epoch == UINT32_MAX) {
    tls_visited_stamp.assign(rows, 0);
    tls_visited_stamp.shrink_to_fit();
    tls_visited_epoch = 0;
  }
  return ++tls_visited_epoch;
}

}  // namespace

std::vector<Neighbor> LshIndex::Query(std::span<const float> query, size_t k,
                                      LshQueryStats* stats) const {
  // Gather the union of bucket contents across tables, deduplicated with
  // the per-thread visited marks, then exactly re-rank by true distance
  // through one batched kernel pass over the gathered candidates.
  const uint32_t epoch = NextVisitedEpoch(train_->Rows());
  static thread_local std::vector<int> candidate_ids;
  static thread_local std::vector<double> candidate_dists;
  ShrinkScratch(&candidate_ids, train_->Rows());
  ShrinkScratch(&candidate_dists, train_->Rows());
  candidate_ids.clear();
  for (const auto& table : tables_) {
    for (int id : table.Candidates(query)) {
      auto& seen = tls_visited_stamp[static_cast<size_t>(id)];
      if (seen == epoch) continue;
      seen = epoch;
      candidate_ids.push_back(id);
    }
  }
  candidate_dists.resize(candidate_ids.size());
  ComputeDistancesFor(*train_, candidate_ids, query, Metric::kL2, &norms_,
                      candidate_dists);
  std::vector<Neighbor> out =
      SelectTopK(candidate_dists, candidate_ids, std::max<size_t>(k, 1));
  if (stats != nullptr) {
    stats->candidates = candidate_ids.size();
    stats->returned = out.size();
  }
  return out;
}

double LshIndex::Recall(std::span<const float> query, size_t k) const {
  auto approx = Query(query, k);
  auto exact = TopKNeighbors(*train_, query, k, Metric::kL2, &norms_);
  if (exact.empty()) return 1.0;
  std::vector<uint8_t> in_approx(train_->Rows(), 0);
  for (const auto& nn : approx) in_approx[static_cast<size_t>(nn.index)] = 1;
  size_t hit = 0;
  for (const auto& nn : exact) hit += in_approx[static_cast<size_t>(nn.index)];
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

}  // namespace knnshap
