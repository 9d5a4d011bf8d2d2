// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/fingerprint.h"

#include <algorithm>

#include "dataset/dataset.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace knnshap {

Fnv64& Fnv64::Update(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = state_;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<uint64_t>(bytes[i]);
    h *= 0x100000001b3ull;  // FNV prime.
  }
  state_ = h;
  return *this;
}

Fnv64& Fnv64::AddString(std::string_view s) {
  Add(s.size());
  return Update(s.data(), s.size());
}

namespace {

// Digest of one row block [begin, end) of each content stream. Every block
// digest starts from the FNV offset basis, so a block's digest depends only
// on its own rows — the property the incremental path relies on.
uint64_t FeatureBlockDigest(const Dataset& data, size_t begin, size_t end) {
  Fnv64 hash;
  if (data.Dim() > 0 && end > begin) {
    // Rows are contiguous in the row-major matrix: one flat pass.
    hash.Update(data.features.Row(begin).data(), (end - begin) * data.Dim() * sizeof(float));
  }
  return hash.Digest();
}

uint64_t LabelBlockDigest(const Dataset& data, size_t begin, size_t end) {
  Fnv64 hash;
  hash.Update(data.labels.data() + begin, (end - begin) * sizeof(int));
  return hash.Digest();
}

uint64_t TargetBlockDigest(const Dataset& data, size_t begin, size_t end) {
  Fnv64 hash;
  hash.Update(data.targets.data() + begin, (end - begin) * sizeof(double));
  return hash.Digest();
}

// Rows one pool task hashes, so a small rehash (an append's last block, a
// query batch) stays on the calling thread.
constexpr size_t kRowsPerTask = 16384;

void RehashRange(const Dataset& data, size_t first_block, CorpusDigests* d) {
  const size_t num_blocks = d->NumBlocks();
  d->feature_blocks.resize(num_blocks);
  d->label_blocks.resize(data.HasLabels() ? num_blocks : 0);
  d->target_blocks.resize(data.HasTargets() ? num_blocks : 0);
  // Each block digest reads only its own rows, so blocks hash in any
  // order, on any thread, to the same bits.
  const size_t block_rows = d->block_rows;
  const size_t blocks_per_task = std::max<size_t>(1, kRowsPerTask / block_rows);
  const size_t first = std::min(first_block, num_blocks);
  const size_t tasks = (num_blocks - first + blocks_per_task - 1) / blocks_per_task;
  const auto hash_task = [&](size_t task) {
    const size_t task_begin = first + task * blocks_per_task;
    for (size_t b = task_begin; b < std::min(num_blocks, task_begin + blocks_per_task);
         ++b) {
      const size_t begin = b * block_rows;
      const size_t end = std::min(d->rows, begin + block_rows);
      d->feature_blocks[b] = FeatureBlockDigest(data, begin, end);
      if (data.HasLabels()) d->label_blocks[b] = LabelBlockDigest(data, begin, end);
      if (data.HasTargets()) d->target_blocks[b] = TargetBlockDigest(data, begin, end);
    }
  };
  if (tasks == 1) {
    hash_task(0);
  } else if (tasks > 1) {
    ThreadPool::Shared().ParallelForHelping(tasks, hash_task);
  }
}

}  // namespace

uint64_t CorpusDigests::Combined() const {
  Fnv64 hash;
  hash.Add(rows);
  hash.Add(cols);
  hash.AddSpan(std::span<const uint64_t>(feature_blocks));
  hash.AddSpan(std::span<const uint64_t>(label_blocks));
  hash.AddSpan(std::span<const uint64_t>(target_blocks));
  return hash.Digest();
}

CorpusDigests ComputeCorpusDigests(const Dataset& data, size_t block_rows) {
  KNNSHAP_CHECK(block_rows >= 1, "fingerprint block size must be >= 1");
  CorpusDigests digests;
  digests.rows = data.Size();
  digests.cols = data.Dim();
  digests.block_rows = block_rows;
  RehashRange(data, 0, &digests);
  return digests;
}

void RehashBlocksFrom(const Dataset& data, size_t first_row, CorpusDigests* digests) {
  KNNSHAP_CHECK(digests->cols == data.Dim() || data.Size() == 0,
                "fingerprint: column count changed");
  digests->rows = data.Size();
  digests->cols = data.Dim();
  RehashRange(data, std::min(first_row, data.Size()) / digests->block_rows, digests);
}

CorpusDigests WindowDigests(const CorpusDigests& digests, size_t row_begin,
                            size_t row_end) {
  const size_t block_rows = digests.block_rows;
  KNNSHAP_CHECK(row_begin < row_end && row_end <= digests.rows,
                "window out of bounds");
  KNNSHAP_CHECK(row_begin % block_rows == 0 &&
                    (row_end % block_rows == 0 || row_end == digests.rows),
                "window must be block-aligned");
  const size_t first = row_begin / block_rows;
  const size_t last = (row_end + block_rows - 1) / block_rows;
  const auto slice = [&](const std::vector<uint64_t>& blocks) {
    return blocks.empty() ? blocks
                          : std::vector<uint64_t>(blocks.begin() + first,
                                                  blocks.begin() + last);
  };
  CorpusDigests window;
  window.rows = row_end - row_begin;
  window.cols = digests.cols;
  window.block_rows = block_rows;
  window.feature_blocks = slice(digests.feature_blocks);
  window.label_blocks = slice(digests.label_blocks);
  window.target_blocks = slice(digests.target_blocks);
  return window;
}

uint64_t DatasetFingerprint(const Dataset& data) {
  return ComputeCorpusDigests(data).Combined();
}

}  // namespace knnshap
