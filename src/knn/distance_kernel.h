// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Batched distance kernels — the shared hot path under every valuation
// method. All of the paper's algorithms reduce to "order the corpus by
// distance to a query", and the O(N·d) distance pass dominates the claimed
// O(N log N) sort, so this subsystem owns both halves:
//
//  * ComputeDistances / ComputeDistanceMatrix / ComputeDistancesFor —
//    query(-block) × corpus(-block) distance evaluation with cache
//    blocking, dimension checks hoisted to once per batch, and three
//    runtime-dispatched implementations:
//      reference  the scalar per-pair loops of knn/metric.cpp, bit-exact
//                 with the per-pair Distance() API (parity baseline);
//      blocked    portable multi-accumulator loops (breaks the serial
//                 double-add dependence chain, auto-vectorizable);
//      avx2       AVX2/FMA intrinsics, compiled with target attributes and
//                 selected only when cpuid reports avx2+fma.
//    The blocked/avx2 paths use the ‖x−q‖² = ‖x‖² − 2x·q + ‖q‖²
//    identity when precomputed corpus row norms are supplied, turning the
//    inner loop into a pure dot product; without norms they run a single
//    fused pass.
//
//  * ArgsortDistances / SelectTopK — ordering over packed 64-bit keys
//    (float-rounded distance bits in the high word, row index in the low
//    word). Non-negative IEEE floats compare like unsigned integers, so the
//    sort is branch-light and cache-linear; float rounding is monotone, so
//    a final pass re-sorting runs of equal float keys by the exact (double
//    distance, index) pair reproduces the reference comparator order bit
//    for bit, ties broken by index by construction. Declared here for the
//    historical call sites; the implementations (and the streaming top-R
//    selectors that share their packed keys) live in knn/selection.
//
// Kernel selection: SetKernelOverride() (strongest), else the
// KNNSHAP_KERNEL environment variable ("reference", "blocked", "avx2",
// "auto"; KernelFromName is the one name table), else auto (avx2 when
// the CPU supports it, blocked otherwise) —
// refined per call by internal::ResolveDistanceKernel, which sends the
// blocked kernel's small-d plain-l2 passes back to the reference loop
// (the blocked norm-identity path measures slower than the scalar one
// there; see BENCH_kernel.json). Every distance entry point applies that
// one rule, so a distance depends on (kernel name, metric, d) alone.

#ifndef KNNSHAP_KNN_DISTANCE_KERNEL_H_
#define KNNSHAP_KNN_DISTANCE_KERNEL_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "knn/metric.h"
#include "util/matrix.h"

namespace knnshap {

/// A retrieved neighbor (mirrored from knn/neighbors.h to keep this header
/// free of a circular include; the two definitions are the same type).
struct Neighbor;

/// Distance-kernel implementations. kAuto resolves at runtime.
enum class KernelKind {
  kAuto,       ///< Pick the fastest supported path (avx2 else blocked).
  kReference,  ///< Scalar per-pair loops, bit-exact with Distance().
  kBlocked,    ///< Portable multi-accumulator fallback.
  kAvx2,       ///< AVX2/FMA intrinsics (x86-64 with cpuid support).
};

/// Human-readable kernel name.
const char* KernelName(KernelKind kind);

/// Inverse of KernelName ("auto", "reference", "blocked", "avx2"); false
/// when `name` matches no kernel. Shared by the KNNSHAP_KERNEL variable
/// and knnshap_serve --kernel.
bool KernelFromName(std::string_view name, KernelKind* out);

/// True when this build and CPU can run the AVX2/FMA path.
bool CpuSupportsAvx2Fma();

/// Forces a kernel for the whole process (tests, benchmarks, and the
/// KNNSHAP_KERNEL escape hatch use this). kAuto restores auto-detection.
/// Requesting kAvx2 without CPU support falls back to kBlocked.
void SetKernelOverride(KernelKind kind);

/// The kernel every batch entry point will actually run, after applying
/// the override, the KNNSHAP_KERNEL environment variable, and cpuid.
KernelKind ActiveKernel();

/// Precomputed per-row norms of a corpus, shared by every query against it.
/// Supplying one to the batch entry points lets the squared-L2 / L2 /
/// cosine fast paths skip the per-pair norm work; the engine valuators
/// build one at Fit() so it amortizes across requests. Norms are computed
/// with the active kernel's dot product so that a corpus row identical to
/// the query cancels to exactly zero distance.
class CorpusNorms {
 public:
  CorpusNorms() = default;
  explicit CorpusNorms(const Matrix& corpus);

  bool Empty() const { return rows_ == 0; }
  /// True when the norms were computed over a matrix of this shape.
  bool Matches(const Matrix& corpus) const {
    return rows_ == corpus.Rows() && cols_ == corpus.Cols();
  }

  /// Squared L2 norm of each row.
  std::span<const double> Squared() const { return squared_; }
  /// Euclidean (sqrt) norm of each row, for cosine.
  std::span<const double> Euclidean() const { return euclidean_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> squared_;
  std::vector<double> euclidean_;
};

/// Norms for `corpus` when `metric` can use them (the L2 family and
/// cosine); an empty — and therefore ignored — instance for L1, where
/// building them would be an O(N·d) pass the kernels never read.
CorpusNorms NormsForMetric(const Matrix& corpus, Metric metric);

/// Distances from `query` to every corpus row, written to `out` (length
/// corpus.Rows()). Dimension compatibility is checked once per call, not
/// per row. `norms` may be null (one-shot callers) or a CorpusNorms built
/// over `corpus`.
void ComputeDistances(const Matrix& corpus, std::span<const float> query,
                      Metric metric, const CorpusNorms* norms,
                      std::span<double> out);

/// Distances from `query` to corpus rows [row_begin, row_end) only,
/// written to out[row_begin - row_begin .. row_end - row_begin). The
/// block-parallel single-query path shards the corpus into ranges and
/// points each worker here; results are bit-identical to the matching
/// slice of ComputeDistances.
void ComputeDistancesRange(const Matrix& corpus, std::span<const float> query,
                           Metric metric, const CorpusNorms* norms,
                           size_t row_begin, size_t row_end,
                           std::span<double> out);

/// Query-block × corpus-block distance matrix: out[q * corpus.Rows() + i]
/// is the distance from queries.Row(q) to corpus.Row(i). Corpus blocks are
/// sized to stay cache-resident across the query block, so the corpus is
/// streamed from memory once per block of queries instead of once per
/// query.
void ComputeDistanceMatrix(const Matrix& corpus, const Matrix& queries,
                           Metric metric, const CorpusNorms* norms,
                           std::span<double> out);

/// Distances from `query` to the listed corpus rows only (LSH/SRP candidate
/// rescoring). out[i] is the distance to corpus.Row(rows[i]).
void ComputeDistancesFor(const Matrix& corpus, std::span<const int> rows,
                         std::span<const float> query, Metric metric,
                         const CorpusNorms* norms, std::span<double> out);

/// Row indices [0, dists.size()) sorted ascending by (distance, index),
/// via the packed-key radix sort described above. Fills *order (resized
/// to n). Exactly reproduces the reference comparator order.
void ArgsortDistances(std::span<const double> dists, std::vector<int>* order);

/// The k smallest entries by (distance, id), ascending. `ids` maps
/// positions in `dists` to row ids (empty span = identity). Selection is
/// O(n) on packed keys plus an exact sort of the small candidate band, so
/// boundary ties resolve exactly as the reference (distance, id) order.
std::vector<Neighbor> SelectTopK(std::span<const double> dists,
                                 std::span<const int> ids, size_t k);

namespace internal {
/// Dot product under the active kernel (exposed so CorpusNorms and tests
/// share the exact accumulation order of the distance pass).
double KernelDot(const float* a, const float* b, size_t d);

/// Pure per-call dispatch policy applied on top of ActiveKernel() by every
/// distance entry point (ComputeDistances / ComputeDistancesRange /
/// ComputeDistanceMatrix / ComputeDistancesFor): the blocked kernel's
/// plain-L2 passes at small d run the reference loop instead —
/// BENCH_kernel.json shows blocked 0.82-0.90x *slower* than scalar there
/// (the per-row sqrt hides the multi-accumulator win and the norm-identity
/// guard adds work). Whether the kernel was pinned or auto-selected does
/// not matter, so two processes on the same ActiveKernel() compute the
/// same distances. Exposed pure so the policy is testable on machines
/// whose own auto pick differs.
KernelKind ResolveDistanceKernel(KernelKind kind, Metric metric, size_t d);
}  // namespace internal

}  // namespace knnshap

#endif  // KNNSHAP_KNN_DISTANCE_KERNEL_H_
