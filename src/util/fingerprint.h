// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Content fingerprints for cache keys. The valuation engine caches results
// and fitted retrieval structures by the *contents* of a dataset (not its
// address or name), so repeated valuations of the same corpus are served
// without recomputation while any mutation — one flipped label, one edited
// feature — invalidates every dependent entry.
//
// The fingerprint is *block-structured*: rows are grouped into fixed-size
// blocks, each block gets its own FNV-1a digest (features, labels and
// targets hashed separately), and the corpus fingerprint is an FNV-1a
// combination of the shape and the block digests. Two properties follow:
//
//   * DatasetFingerprint(data) — the full-rehash fallback — and an
//     incrementally maintained CorpusDigests always agree bit for bit,
//     because both reduce to the same block digests;
//   * appending a row only rehashes the trailing (possibly partial) block
//     plus the O(num_blocks) combine, not the whole matrix. The serve
//     layer's CorpusStore maintains digests this way, so the *fingerprint*
//     cost of a mutation is one block hash — and, more importantly, value
//     requests against a stored corpus reuse the maintained fingerprint
//     and never rehash the matrix at all. (The mutation itself still
//     copies the corpus — copy-on-write storage, not chunked storage.)
//
// FNV-1a (64-bit) is used: not cryptographic, but fast, dependency-free and
// stable across platforms for our fixed-width inputs.

#ifndef KNNSHAP_UTIL_FINGERPRINT_H_
#define KNNSHAP_UTIL_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace knnshap {

struct Dataset;

/// Streaming 64-bit FNV-1a hasher.
class Fnv64 {
 public:
  /// Absorbs `size` raw bytes.
  Fnv64& Update(const void* data, size_t size);

  /// Absorbs the bytes of a trivially-copyable value (ints, floats, enums).
  template <typename T>
  Fnv64& Add(const T& value) {
    return Update(&value, sizeof(T));
  }

  /// Absorbs a length-prefixed string (so "ab","c" != "a","bc").
  Fnv64& AddString(std::string_view s);

  /// Absorbs a length-prefixed span of trivially-copyable elements.
  template <typename T>
  Fnv64& AddSpan(std::span<const T> values) {
    Add(values.size());
    return Update(values.data(), values.size() * sizeof(T));
  }

  uint64_t Digest() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;  // FNV offset basis.
};

/// Rows per fingerprint block. The canonical DatasetFingerprint is defined
/// over this block size; tests use smaller sizes to stress boundaries.
inline constexpr size_t kFingerprintBlockRows = 256;

/// Per-block digests of a dataset plus the shape needed to combine them.
/// Maintained incrementally by the serve layer's CorpusStore; recomputable
/// from scratch by ComputeCorpusDigests. Combined() is the corpus
/// fingerprint.
struct CorpusDigests {
  size_t rows = 0;
  size_t cols = 0;
  size_t block_rows = kFingerprintBlockRows;
  std::vector<uint64_t> feature_blocks;  ///< One digest per row block.
  std::vector<uint64_t> label_blocks;    ///< Empty when the data has no labels.
  std::vector<uint64_t> target_blocks;   ///< Empty when the data has no targets.

  size_t NumBlocks() const {
    return rows == 0 ? 0 : (rows + block_rows - 1) / block_rows;
  }

  /// The corpus fingerprint: FNV over shape + block digests. Depends on
  /// block_rows, so only digests built with the same block size compare.
  uint64_t Combined() const;
};

/// Digests of every block, computed from scratch (the fallback the
/// incremental path is verified against).
CorpusDigests ComputeCorpusDigests(const Dataset& data,
                                   size_t block_rows = kFingerprintBlockRows);

/// Recomputes the digests of every block that intersects rows
/// [first_row, data.Size()), in place; trailing stale blocks are dropped.
/// `digests` must describe `data`'s previous state with the same cols and
/// block_rows. After the call, *digests == ComputeCorpusDigests(data), but
/// only ceil((rows - first_row)/block_rows) + 1 blocks were rehashed.
void RehashBlocksFrom(const Dataset& data, size_t first_row, CorpusDigests* digests);

/// The digests of rows [row_begin, row_end) of the corpus `digests`
/// describes, equal to ComputeCorpusDigests of those rows alone: a block
/// digest hashes only its own rows, so a block-aligned window's digests
/// are a slice of the corpus's. `row_begin` must be block-aligned and
/// `row_end` block-aligned or digests.rows. A shard worker holds such a
/// window, and Combined() of it is the window's content fingerprint.
CorpusDigests WindowDigests(const CorpusDigests& digests, size_t row_begin,
                            size_t row_end);

/// Fingerprint of a dataset's full contents: shape, feature bits, labels
/// and targets, via a full block-digest rehash. The name is deliberately
/// excluded — two datasets with equal contents are the same corpus for
/// valuation purposes.
uint64_t DatasetFingerprint(const Dataset& data);

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_FINGERPRINT_H_
