// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "knn/selection.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "knn/distance_kernel.h"
#include "knn/neighbors.h"
#include "util/common.h"

namespace knnshap {

namespace internal {

uint32_t SortableBits(double value) {
  float f = static_cast<float>(value);
  // Canonicalize -0.0f to +0.0f: the only two distinct floats that compare
  // equal, so without this they would land in different packed-key runs
  // while the exact (double, index) band sort merges them — the one input
  // where packed order and comparator order could disagree.
  f += 0.0f;
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Full argsort (the sort path and the parity oracle)
// ---------------------------------------------------------------------------

namespace {

// LSD digits of the float half of a packed key: bits 32-42, 43-53, 54-63.
constexpr int kRadixPasses = 3;
constexpr int kRadixShift[kRadixPasses] = {32, 43, 54};
constexpr size_t kRadixBuckets = size_t{1} << 11;

inline size_t RadixDigit(uint64_t key, int pass) {
  return static_cast<size_t>(key >> kRadixShift[pass]) & (kRadixBuckets - 1);
}

}  // namespace

void ArgsortDistances(std::span<const double> dists, std::vector<int>* order) {
  const size_t n = dists.size();
  KNNSHAP_CHECK(n < (size_t{1} << 31), "corpus too large for packed argsort");
  static thread_local std::vector<uint64_t> keys;
  static thread_local std::vector<uint64_t> spare;
  ResizeScratch(&keys, n);
  ResizeScratch(&spare, n);
  uint32_t counts[kRadixPasses][kRadixBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key =
        (static_cast<uint64_t>(internal::SortableBits(dists[i])) << 32) |
        static_cast<uint32_t>(i);
    keys[i] = key;
    for (int pass = 0; pass < kRadixPasses; ++pass) {
      ++counts[pass][RadixDigit(key, pass)];
    }
  }
  // Stable LSD radix sort on the float bits alone: the keys were built in
  // ascending index order, so stability yields the full 64-bit key order.
  for (int pass = 0; pass < kRadixPasses && n > 0; ++pass) {
    uint32_t* count = counts[pass];
    // A digit every key shares would only copy the buffer.
    if (count[RadixDigit(keys[0], pass)] == n) continue;
    uint32_t offset = 0;
    for (size_t b = 0; b < kRadixBuckets; ++b) {
      const uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (size_t i = 0; i < n; ++i) {
      spare[count[RadixDigit(keys[i], pass)]++] = keys[i];
    }
    keys.swap(spare);
  }
  order->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*order)[i] = static_cast<int>(keys[i] & 0xffffffffu);
  }
  // Float rounding is monotone, so only runs of equal float keys can
  // deviate from the exact (double distance, index) order; re-sort them.
  size_t run = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || (keys[i] >> 32) != (keys[run] >> 32)) {
      if (i - run > 1) {
        std::sort(order->begin() + static_cast<long>(run),
                  order->begin() + static_cast<long>(i), [&dists](int a, int b) {
                    double da = dists[static_cast<size_t>(a)];
                    double db = dists[static_cast<size_t>(b)];
                    if (da != db) return da < db;
                    return a < b;
                  });
      }
      run = i;
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming top-R
// ---------------------------------------------------------------------------

namespace {

// Inverse of SortableBits: the float whose sortable bits are `s`.
float FloatFromSortableBits(uint32_t s) {
  const uint32_t fbits = (s & 0x80000000u) ? (s & 0x7fffffffu) : ~s;
  float f;
  std::memcpy(&f, &fbits, sizeof(f));
  return f;
}

// Largest double that could still round to <= the float with sortable bits
// `s`: everything above (double)nextafterf(f, +inf) rounds strictly past f
// (rounding moves by at most half an ulp), so a single double compare
// rejects it without the convert/pack work. Conservative at the edges
// (infinite f yields an accept-all cutoff), never wrong.
double RejectCutoff(uint32_t s) {
  const float f = FloatFromSortableBits(s);
  return static_cast<double>(
      std::nextafterf(f, std::numeric_limits<float>::infinity()));
}

}  // namespace

namespace internal {

// One streaming pass with a bounded max-heap of packed keys: after the
// pass the heap holds exactly the r smallest packed keys, whose maximum
// identifies the boundary float key; a second scan gathers that whole tie
// band. No O(n) buffer is written — only read — so the pass stays
// memory-bandwidth-light at corpus scale, and once the heap is warm the
// per-element work collapses to one predicted-not-taken double compare
// against the root's reject cutoff.
void TopRHeap(std::span<const double> dists, size_t r, std::vector<int>* order) {
  const size_t n = dists.size();
  KNNSHAP_CHECK(r >= 1 && r <= n, "TopRHeap needs 1 <= r <= n");
  static thread_local std::vector<uint64_t> heap;
  static thread_local std::vector<uint32_t> band;
  ShrinkScratch(&heap, r);
  ShrinkScratch(&band, r);
  heap.clear();
  double cutoff = std::numeric_limits<double>::infinity();
  // True when some key sharing the *current* root's float bits was dropped
  // (popped or rejected): only then can the final boundary band extend
  // beyond the heap, requiring the O(n) re-gather below. Dropped keys have
  // bits >= the root bits at drop time, and root bits only decrease, so
  // every root-bits decrease invalidates all earlier drops.
  bool dropped_at_root = false;
  uint32_t root_bits = 0;
  for (size_t i = 0; i < n; ++i) {
    // NaN falls through to the exact packed-key comparison below.
    if (dists[i] > cutoff) continue;
    const uint64_t key =
        (static_cast<uint64_t>(internal::SortableBits(dists[i])) << 32) |
        static_cast<uint32_t>(i);
    if (heap.size() < r) {
      heap.push_back(key);
      std::push_heap(heap.begin(), heap.end());
      if (heap.size() == r) {
        root_bits = static_cast<uint32_t>(heap.front() >> 32);
        cutoff = RejectCutoff(root_bits);
      }
    } else if (key < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = key;
      std::push_heap(heap.begin(), heap.end());
      const uint32_t new_root = static_cast<uint32_t>(heap.front() >> 32);
      // The popped key carried the old root bits; it stays relevant only
      // while the root bits have not moved past it.
      dropped_at_root = (new_root == root_bits);
      if (new_root != root_bits) {
        root_bits = new_root;
        cutoff = RejectCutoff(root_bits);
      }
    } else if (static_cast<uint32_t>(key >> 32) == root_bits) {
      dropped_at_root = true;
    }
  }
  const uint32_t kth_bits = static_cast<uint32_t>(heap.front() >> 32);
  band.clear();
  for (uint64_t key : heap) {
    if (static_cast<uint32_t>(key >> 32) != kth_bits) {
      band.push_back(static_cast<uint32_t>(key & 0xffffffffu));
    }
  }
  if (!dropped_at_root) {
    // Nothing sharing the boundary float key was ever dropped, so the
    // heap's own boundary entries ARE the whole band — no second scan.
    for (uint64_t key : heap) {
      if (static_cast<uint32_t>(key >> 32) == kth_bits) {
        band.push_back(static_cast<uint32_t>(key & 0xffffffffu));
      }
    }
  } else {
    // The heap only kept the r smallest boundary-key entries; the exact
    // (double, index) order inside the band may rank dropped ones earlier,
    // so the whole band is re-gathered from the input. Everything rounding
    // to the boundary float lies within one float ulp of it, so two double
    // compares reject the rest of the corpus before the convert.
    const float kth_float = FloatFromSortableBits(kth_bits);
    const double band_lo = static_cast<double>(std::nextafterf(
        kth_float, -std::numeric_limits<float>::infinity()));
    const double band_hi = static_cast<double>(std::nextafterf(
        kth_float, std::numeric_limits<float>::infinity()));
    for (size_t i = 0; i < n; ++i) {
      if (dists[i] < band_lo || dists[i] > band_hi) continue;
      if (internal::SortableBits(dists[i]) == kth_bits) {
        band.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  // Exact-sort the prefix plus the boundary band by (double distance,
  // index) and keep the first r: bit-identical to the full-sort prefix.
  std::sort(band.begin(), band.end(), [&dists](uint32_t a, uint32_t b) {
    if (dists[a] != dists[b]) return dists[a] < dists[b];
    return a < b;
  });
  order->assign(band.begin(), band.begin() + static_cast<long>(r));
}

}  // namespace internal

void PartialArgsortDistances(std::span<const double> dists, size_t r,
                             std::vector<int>* order) {
  const size_t n = dists.size();
  KNNSHAP_CHECK(n < (size_t{1} << 31), "corpus too large for packed selection");
  if (r == 0 || n == 0) {
    order->clear();
    return;
  }
  if (r <= n / internal::kHeapRankDivisor) {
    internal::TopRHeap(dists, r, order);
    return;
  }
  ArgsortDistances(dists, order);
  order->resize(std::min(r, n));
}

void MergeSortedCandidateRuns(std::span<const double> dists,
                              std::span<const std::vector<int>> runs, size_t r,
                              std::vector<int>* out) {
  out->clear();
  size_t total = 0;
  for (const auto& run : runs) total += run.size();
  r = std::min(r, total);
  out->reserve(r);
  // Linear scan over the run heads: with a handful of shards this beats a
  // heap (no sift overhead) and, unlike re-sorting the concatenation,
  // stays O(total * runs) at r = total. The comparator is the ordering
  // contract's (double distance, index) pair — each run already obeys it,
  // so the merged sequence is the global ArgsortDistances prefix.
  static thread_local std::vector<size_t> heads;
  heads.assign(runs.size(), 0);
  while (out->size() < r) {
    size_t best_run = runs.size();
    int best = -1;
    double best_dist = 0.0;
    for (size_t s = 0; s < runs.size(); ++s) {
      if (heads[s] >= runs[s].size()) continue;
      const int candidate = runs[s][heads[s]];
      const double dist = dists[static_cast<size_t>(candidate)];
      if (best < 0 || dist < best_dist ||
          (dist == best_dist && candidate < best)) {
        best_run = s;
        best = candidate;
        best_dist = dist;
      }
    }
    // total >= r guarantees a head exists until out is full.
    ++heads[best_run];
    out->push_back(best);
  }
}

// ---------------------------------------------------------------------------
// SelectTopK (declared in knn/distance_kernel.h)
// ---------------------------------------------------------------------------

std::vector<Neighbor> SelectTopK(std::span<const double> dists,
                                 std::span<const int> ids, size_t k) {
  const size_t n = dists.size();
  KNNSHAP_CHECK(n < (size_t{1} << 31), "corpus too large for packed selection");
  KNNSHAP_CHECK(ids.empty() || ids.size() == n, "id map size mismatch");
  k = std::min(k, n);
  if (k == 0) return {};
  if (ids.empty()) {
    // Identity ids tie-break by position == id, exactly the
    // PartialArgsortDistances order, so its size rule picks the path.
    static thread_local std::vector<int> order;
    PartialArgsortDistances(dists, k, &order);
    std::vector<Neighbor> out;
    out.reserve(k);
    for (int pos : order) {
      out.push_back({pos, dists[static_cast<size_t>(pos)]});
    }
    return out;
  }
  // With an id map (LSH/SRP candidate rescoring) ties break by mapped id,
  // not buffer position — a different order from PartialArgsortDistances,
  // so this nth_element partition plus id-ordered band sort stays its own
  // path.
  auto id_of = [&ids](size_t pos) { return ids[pos]; };
  static thread_local std::vector<uint64_t> keys;
  static thread_local std::vector<uint32_t> band;
  ResizeScratch(&keys, n);
  ShrinkScratch(&band, n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = (static_cast<uint64_t>(internal::SortableBits(dists[i])) << 32) |
              static_cast<uint32_t>(i);
  }
  band.clear();
  if (k == n) {
    for (size_t i = 0; i < n; ++i) band.push_back(static_cast<uint32_t>(i));
  } else {
    std::nth_element(keys.begin(), keys.begin() + static_cast<long>(k - 1),
                     keys.end());
    const uint32_t kth_bits = static_cast<uint32_t>(keys[k - 1] >> 32);
    for (size_t i = 0; i < k; ++i) {
      band.push_back(static_cast<uint32_t>(keys[i] & 0xffffffffu));
    }
    for (size_t i = k; i < n; ++i) {
      if (static_cast<uint32_t>(keys[i] >> 32) == kth_bits) {
        band.push_back(static_cast<uint32_t>(keys[i] & 0xffffffffu));
      }
    }
  }
  std::sort(band.begin(), band.end(), [&](uint32_t a, uint32_t b) {
    double da = dists[a];
    double db = dists[b];
    if (da != db) return da < db;
    return id_of(a) < id_of(b);
  });
  band.resize(k);
  std::vector<Neighbor> out;
  out.reserve(k);
  for (uint32_t pos : band) out.push_back({id_of(pos), dists[pos]});
  return out;
}

}  // namespace knnshap
