// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardPlanner — splits a corpus into contiguous, fingerprint-block-aligned
// shards for the shard ranking (src/shard/shard_ranking.h).
//
// Two design constraints drive the plan shape:
//
//   * Contiguity. The exact/corrected/weighted recursions consume a global
//     (distance, row-index) ranking; a shard that owns the contiguous row
//     range [b, e) produces candidates whose *local* selection order equals
//     the restriction of the global order to the shard (the row-index tie
//     break is monotone under a constant offset), so per-shard exact top-R
//     runs merge into the global top-R bit for bit (knn/selection.h).
//
//   * Block alignment. CorpusStore maintains per-block content digests
//     (util/fingerprint.h, kFingerprintBlockRows rows per block)
//     incrementally across mutations. Aligning shard boundaries to those
//     blocks makes each shard's identity *content-addressed* for free: a
//     shard fingerprint is an FNV combine of the block digests it covers,
//     so a mutation invalidates exactly the shards whose blocks were
//     rehashed, and a worker process can verify it holds the same bytes
//     the router planned against without rehashing anything.
//
// Rows are balanced at block granularity: every shard gets floor or ceil
// of num_blocks / shard_count blocks. A shard count above the block count
// degrades to one shard per block (never an empty shard).

#ifndef KNNSHAP_SHARD_SHARD_PLANNER_H_
#define KNNSHAP_SHARD_SHARD_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/fingerprint.h"

namespace knnshap {

/// One planned shard: a contiguous, block-aligned row range plus the
/// content-addressed fingerprint of exactly those rows' block digests.
struct ShardRange {
  size_t row_begin = 0;
  size_t row_end = 0;  ///< exclusive; block-aligned or == corpus rows.
  uint64_t fingerprint = 0;

  size_t Rows() const { return row_end - row_begin; }
  bool operator==(const ShardRange&) const = default;
};

/// Content fingerprint of corpus rows [row_begin, row_end): FNV over the
/// range, the shape, and the feature/label/target block digests the range
/// covers. `digests` describe corpus rows [first_row, first_row +
/// digests.rows) with `first_row` block-aligned: the whole corpus on the
/// router, the held window on a shard worker. The range must lie inside
/// them, with `row_begin` block-aligned and `row_end` block-aligned or the
/// end of the described rows. Shared by the planner and the worker-side
/// verification in the `candidates` op — both sides compute it from their
/// own digests and must agree bit for bit.
uint64_t ShardFingerprint(const CorpusDigests& digests, size_t row_begin,
                          size_t row_end, size_t first_row = 0);

/// Splits the corpus described by `digests` into min(shard_count,
/// NumBlocks()) contiguous block-aligned shards with balanced block
/// counts. shard_count < 1 plans as 1. The ranges partition [0, rows).
std::vector<ShardRange> PlanShards(const CorpusDigests& digests,
                                   size_t shard_count);

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SHARD_PLANNER_H_
