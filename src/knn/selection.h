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
// per-shard candidate runs (MergeSortedCandidateRuns below) may therefore
// compare raw double distances with (dist, index) and reproduce the
// packed order bit for bit; -0.0 distances (cosine rounding) need no
// special-casing on their side. Pinned by select_test.cpp.
//
// Two paths, picked by size alone (no override, option or environment
// variable):
//   heap   one streaming pass with a bounded max-heap of packed keys plus
//          a second O(n) scan for the boundary band — O(n + r log r) and
//          no O(n) key buffer mutation; runs while r <= n / 32.
//   sort   the full radix ArgsortDistances, truncated — runs above that,
//          and is the oracle the heap is tested against.
// The cutoff (internal::kHeapRankDivisor) sits at the measured crossover:
// BENCH_kernel.json's crossover rows time the heap against the argsort at
// r = n/64 .. n/8 for n = 100k and 1M; heap/argsort is ~0.6 at n/64,
// ~1.1 at n/32 and 1.9-3.6 from n/16 up.
//
// The derivation of the truncated-exact tail bound that picks R lives in
// src/knn/README.md; the parity suite is tests/select_test.cpp.

#ifndef KNNSHAP_KNN_SELECTION_H_
#define KNNSHAP_KNN_SELECTION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace knnshap {

/// The first min(r, n) entries of ArgsortDistances(dists), bit-identically
/// — ascending by (double distance, index) — without ordering the tail.
/// Appends into *order (cleared first). The bounded heap answers while
/// r <= n / internal::kHeapRankDivisor, the argsort prefix otherwise;
/// r >= n is the full sort.
void PartialArgsortDistances(std::span<const double> dists, size_t r,
                             std::vector<int>* order);

/// K-way merge of per-shard candidate *runs*, each already ascending by
/// (dists[i], i) — exactly what PartialArgsortDistances over a contiguous
/// block or shard produces after offsetting to global indices. Appends the
/// first min(r, total) entries of the merged order into *out (cleared
/// first); when every run is its part's exact top-r, that is the global
/// top-r bit for bit. O(total * runs) comparisons, no re-sort — the merge
/// under blocked single-query selection and multi-shard serving, where
/// the router runs it at r = N for the full-recursion methods.
void MergeSortedCandidateRuns(std::span<const double> dists,
                              std::span<const std::vector<int>> runs, size_t r,
                              std::vector<int>* out);

namespace internal {
/// Monotone map from a double distance to 32 sortable bits: round to float
/// (monotone), then flip IEEE bits so unsigned comparison matches numeric
/// order for negatives too (cosine can round a hair below zero). Shared by
/// every packed-key path so their boundary bands agree bit for bit.
uint32_t SortableBits(double value);

/// PartialArgsortDistances runs TopRHeap while r <= n / kHeapRankDivisor
/// and the ArgsortDistances prefix above it.
inline constexpr size_t kHeapRankDivisor = 32;

/// The bounded-heap top-R path of PartialArgsortDistances, callable at any
/// 1 <= r <= dists.size() so tests and benchmarks can pin it against the
/// argsort prefix on both sides of the size cutoff. Same output contract.
void TopRHeap(std::span<const double> dists, size_t r, std::vector<int>* order);
}  // namespace internal

}  // namespace knnshap

#endif  // KNNSHAP_KNN_SELECTION_H_
