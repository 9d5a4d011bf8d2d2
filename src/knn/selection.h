// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Streaming top-R selection over packed distance keys — the other half of
// the query path. BENCH_kernel.json at N=1M d=16 puts the batched distance
// kernel at ~6.4 ms/query and the full packed argsort at ~81 ms: selection
// dominates by >12x once the kernel is fast. The exact-SV recursion
// consumes neighbors strictly in rank order and the value at rank i decays
// like O(1/i), so the hot path only ever needs the first R ranks exactly;
// this header provides them without sorting the tail.
//
// Ordering contract. ArgsortDistances orders by packed 64-bit keys
// (float-rounded distance bits << 32 | index; a stable radix sort on the
// float bits, since the keys are built in index order) and then re-sorts
// runs of equal float keys by the exact (double distance, index) pair. Float
// rounding is monotone, so that composite order *is* the ascending
// (double distance, index) order — and because the low word makes every
// packed key unique, the r smallest packed keys are set-equal to the
// first r entries of the full order up to the boundary float-tie band.
// Every selector below therefore gathers its candidate prefix plus the
// whole band of entries sharing the boundary float key, sorts those few
// candidates exactly, and truncates: the result is bit-identical to the
// same-length prefix of ArgsortDistances, on every input, including
// tie-heavy ones.
//
// Negative zero. The packed key canonicalizes -0.0 to +0.0 before the
// IEEE bit flip (SortableBits adds +0.0f after the float rounding). -0.0
// and +0.0 are the only two distinct floats that compare equal, so
// without the canonicalization the packed order and the (double
// distance, index) comparator could disagree on exactly that pair; with
// it, a distance of -0.0 keys identically to +0.0 and the tie breaks by
// index — the same answer every double comparator gives, because
// -0.0 == +0.0 under operator== and operator<. External callers merging
// per-shard candidate runs (MergeTopCandidates below) may therefore
// compare raw double distances with (dist, index) and reproduce the
// packed order bit for bit; -0.0 distances (cosine rounding) need no
// special-casing on their side. Pinned by select_test.cpp.
//
// Three interchangeable strategies (KNNSHAP_SELECT forces one in CI):
//   heap   one streaming pass with a bounded max-heap of packed keys plus
//          a second O(n) scan for the boundary band — O(n + r log r) and
//          no O(n) key buffer mutation; the r << n fast path.
//   nth    std::nth_element partition of the key buffer at r, then the
//          band gather — O(n) with better constants when r is a sizable
//          fraction of n.
//   sort   full ArgsortDistances, truncated — the oracle the other two
//          are tested against.
// Selection: SetSelectOverride() (strongest), else the KNNSHAP_SELECT
// environment variable ("heap", "nth", "sort", "auto"), else auto (heap
// when r is small relative to n, nth otherwise).
//
// The derivation of the truncated-exact tail bound that picks R lives in
// src/knn/README.md; the parity suite is tests/select_test.cpp.

#ifndef KNNSHAP_KNN_SELECTION_H_
#define KNNSHAP_KNN_SELECTION_H_

#include <cstdint>
#include <span>
#include <vector>

namespace knnshap {

/// Top-R selection strategies. kAuto resolves at call time from r and n.
enum class SelectKind {
  kAuto,  ///< heap when r << n, nth otherwise.
  kHeap,  ///< Streaming bounded max-heap, single pass + band scan.
  kNth,   ///< nth_element partition of the packed-key buffer.
  kSort,  ///< Full argsort, truncated — the parity oracle.
};

/// Human-readable strategy name ("auto", "heap", "nth", "sort").
const char* SelectName(SelectKind kind);

/// Forces a selection strategy process-wide (tests, benchmarks, and the
/// KNNSHAP_SELECT escape hatch). kAuto restores the size heuristic.
void SetSelectOverride(SelectKind kind);

/// The strategy PartialArgsortDistances will run for a given (r, n), after
/// the override, the KNNSHAP_SELECT environment variable, and the auto
/// heuristic.
SelectKind ActiveSelect(size_t r, size_t n);

/// The first min(r, n) entries of ArgsortDistances(dists), bit-identically
/// — ascending by (double distance, index) — without ordering the tail.
/// Appends into *order (cleared first). r >= n degrades to the full sort.
void PartialArgsortDistances(std::span<const double> dists, size_t r,
                             std::vector<int>* order);

/// Exact merge of per-shard candidate lists: keeps the first min(r, size)
/// entries of *candidates by (dists[i], i) ascending, in order. When every
/// shard contributed its own exact top-r (e.g. from PartialArgsortDistances
/// over a block, offset to global indices), the result is bit-identical to
/// the global top-r — the shard-merge building block for blocked
/// single-query parallelism and multi-shard serving.
void MergeTopCandidates(std::span<const double> dists,
                        std::vector<int>* candidates, size_t r);

/// K-way merge of per-shard candidate *runs*, each already ascending by
/// (dists[i], i) — exactly what PartialArgsortDistances over a contiguous
/// shard produces after offsetting to global indices. Appends the first
/// min(r, total) entries of the merged order into *out (cleared first),
/// bit-identical to MergeTopCandidates over the concatenation but in
/// O(total * runs) comparisons instead of a full sort — the multi-shard
/// serving path runs it at r = N for the full-recursion methods, where
/// re-sorting would repay the argsort the shards just parallelized.
void MergeSortedCandidateRuns(std::span<const double> dists,
                              std::span<const std::vector<int>> runs, size_t r,
                              std::vector<int>* out);

namespace internal {
/// Monotone map from a double distance to 32 sortable bits: round to float
/// (monotone), then flip IEEE bits so unsigned comparison matches numeric
/// order for negatives too (cosine can round a hair below zero). Shared by
/// every packed-key path so their boundary bands agree bit for bit.
uint32_t SortableBits(double value);
}  // namespace internal

}  // namespace knnshap

#endif  // KNNSHAP_KNN_SELECTION_H_
