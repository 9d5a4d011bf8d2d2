// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/shard_planner.h"

#include <algorithm>

#include "util/common.h"

namespace knnshap {

namespace {

void AddBlockSlice(Fnv64* hash, const std::vector<uint64_t>& blocks,
                   size_t block_begin, size_t block_end) {
  // Length-prefixed slice, so an empty label channel cannot alias a
  // feature digest of a differently-shaped corpus.
  if (blocks.empty()) {
    hash->AddSpan(std::span<const uint64_t>{});
    return;
  }
  hash->AddSpan(std::span<const uint64_t>(blocks.data() + block_begin,
                                          block_end - block_begin));
}

}  // namespace

uint64_t ShardFingerprint(const CorpusDigests& digests, size_t row_begin,
                          size_t row_end, size_t first_row) {
  const size_t block_rows = digests.block_rows;
  KNNSHAP_CHECK(block_rows > 0, "digests without a block size");
  KNNSHAP_CHECK(first_row % block_rows == 0 && first_row <= row_begin &&
                    row_begin < row_end && row_end - first_row <= digests.rows,
                "shard range out of bounds");
  // Block indices into the digests, which start at first_row.
  const size_t begin = row_begin - first_row, end = row_end - first_row;
  KNNSHAP_CHECK(begin % block_rows == 0,
                "shard row_begin must be block-aligned");
  KNNSHAP_CHECK(end % block_rows == 0 || end == digests.rows,
                "shard row_end must be block-aligned or the corpus end");
  const size_t block_begin = begin / block_rows;
  const size_t block_end = (end + block_rows - 1) / block_rows;

  Fnv64 hash;
  hash.AddString("knnshap.shard");
  hash.Add(row_begin);
  hash.Add(row_end);
  hash.Add(digests.cols);
  hash.Add(block_rows);
  AddBlockSlice(&hash, digests.feature_blocks, block_begin, block_end);
  AddBlockSlice(&hash, digests.label_blocks, block_begin, block_end);
  AddBlockSlice(&hash, digests.target_blocks, block_begin, block_end);
  return hash.Digest();
}

std::vector<ShardRange> PlanShards(const CorpusDigests& digests,
                                   size_t shard_count) {
  KNNSHAP_CHECK(digests.rows > 0, "cannot shard an empty corpus");
  const size_t num_blocks = digests.NumBlocks();
  shard_count = std::clamp<size_t>(shard_count, 1, num_blocks);

  std::vector<ShardRange> plan;
  plan.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    // Balanced block partition: shard s covers blocks
    // [s*B/S, (s+1)*B/S) — every shard within one block of the others.
    const size_t block_begin = s * num_blocks / shard_count;
    const size_t block_end = (s + 1) * num_blocks / shard_count;
    ShardRange range;
    range.row_begin = block_begin * digests.block_rows;
    range.row_end = std::min(digests.rows, block_end * digests.block_rows);
    range.fingerprint = ShardFingerprint(digests, range.row_begin, range.row_end);
    plan.push_back(range);
  }
  return plan;
}

}  // namespace knnshap
