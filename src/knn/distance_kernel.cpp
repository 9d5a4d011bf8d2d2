// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "knn/distance_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "knn/neighbors.h"
#include "util/common.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KNNSHAP_KERNEL_HAS_AVX2 1
#include <immintrin.h>
#else
#define KNNSHAP_KERNEL_HAS_AVX2 0
#endif

namespace knnshap {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace {

std::atomic<KernelKind> g_override{KernelKind::kAuto};

KernelKind EnvKernel() {
  static KernelKind env_kind = [] {
    KernelKind kind = KernelKind::kAuto;
    const char* env = std::getenv("KNNSHAP_KERNEL");
    if (env != nullptr) KernelFromName(env, &kind);
    return kind;
  }();
  return env_kind;
}

}  // namespace

bool CpuSupportsAvx2Fma() {
#if KNNSHAP_KERNEL_HAS_AVX2
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

const char* KernelName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
      return "auto";
    case KernelKind::kReference:
      return "reference";
    case KernelKind::kBlocked:
      return "blocked";
    case KernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelFromName(std::string_view name, KernelKind* out) {
  for (KernelKind kind : {KernelKind::kAuto, KernelKind::kReference,
                          KernelKind::kBlocked, KernelKind::kAvx2}) {
    if (name == KernelName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

void SetKernelOverride(KernelKind kind) {
  g_override.store(kind, std::memory_order_relaxed);
}

KernelKind ActiveKernel() {
  KernelKind kind = g_override.load(std::memory_order_relaxed);
  if (kind == KernelKind::kAuto) kind = EnvKernel();
  if (kind == KernelKind::kAuto) {
    kind = CpuSupportsAvx2Fma() ? KernelKind::kAvx2 : KernelKind::kBlocked;
  }
  if (kind == KernelKind::kAvx2 && !CpuSupportsAvx2Fma()) {
    kind = KernelKind::kBlocked;
  }
  return kind;
}

namespace internal {

KernelKind ResolveDistanceKernel(KernelKind kind, Metric metric, size_t d) {
  // Only where the bench shows the blocked path losing to the scalar
  // loop: plain L2 (the per-row sqrt serializes the pass) at small d (the
  // norm-identity guard's overhead is not amortized).
  if (kind == KernelKind::kBlocked && metric == Metric::kL2 && d < 32) {
    return KernelKind::kReference;
  }
  return kind;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Inner loops. All accumulate in double (float inputs), like the reference;
// the blocked/avx2 variants split the serial double-add dependence chain
// across independent accumulators, which changes only the summation order.
// ---------------------------------------------------------------------------

namespace {

double DotBlocked(const float* a, const float* b, size_t d) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    acc1 += static_cast<double>(a[i + 1]) * static_cast<double>(b[i + 1]);
    acc2 += static_cast<double>(a[i + 2]) * static_cast<double>(b[i + 2]);
    acc3 += static_cast<double>(a[i + 3]) * static_cast<double>(b[i + 3]);
  }
  for (; i < d; ++i) {
    acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

double SquaredDiffBlocked(const float* a, const float* b, size_t d) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    double d0 = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    double d1 = static_cast<double>(a[i + 1]) - static_cast<double>(b[i + 1]);
    double d2 = static_cast<double>(a[i + 2]) - static_cast<double>(b[i + 2]);
    double d3 = static_cast<double>(a[i + 3]) - static_cast<double>(b[i + 3]);
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < d; ++i) {
    double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc0 += diff * diff;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

double L1Blocked(const float* a, const float* b, size_t d) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc0 += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    acc1 += std::fabs(static_cast<double>(a[i + 1]) - static_cast<double>(b[i + 1]));
    acc2 += std::fabs(static_cast<double>(a[i + 2]) - static_cast<double>(b[i + 2]));
    acc3 += std::fabs(static_cast<double>(a[i + 3]) - static_cast<double>(b[i + 3]));
  }
  for (; i < d; ++i) {
    acc0 += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

#if KNNSHAP_KERNEL_HAS_AVX2

__attribute__((target("avx2,fma"))) double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d sum2 = _mm_add_pd(lo, hi);
  __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

__attribute__((target("avx2,fma"))) double DotAvx2(const float* a, const float* b,
                                                   size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    __m256d a0 = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    acc0 = _mm256_fmadd_pd(a0, b0, acc0);
    __m256d a1 = _mm256_cvtps_pd(_mm_loadu_ps(a + i + 4));
    __m256d b1 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4));
    acc1 = _mm256_fmadd_pd(a1, b1, acc1);
  }
  double total = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < d; ++i) {
    total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return total;
}

__attribute__((target("avx2,fma"))) double SquaredDiffAvx2(const float* a,
                                                           const float* b, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                               _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    __m256d d1 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                               _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double total = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < d; ++i) {
    double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    total += diff * diff;
  }
  return total;
}

// Four independent row·query dots with the accumulator chains interleaved.
// A single row's chain (cvt, fmadd, horizontal sum) is latency-bound at
// small d — the reduce alone costs more cycles than the arithmetic — so
// running four rows' chains in flight roughly quadruples throughput on the
// single-query pass. Each row's operation sequence (chunk order, acc0/acc1
// split, HorizontalSum, scalar remainder) is exactly DotAvx2's, so the
// results are bit-identical to four independent DotAvx2 calls; the query
// chunks are converted once and shared.
__attribute__((target("avx2,fma"))) void DotAvx2x4(const float* r0, const float* r1,
                                                   const float* r2, const float* r3,
                                                   const float* q, size_t d,
                                                   double* dots) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
  __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256d q0 = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
    const __m256d q1 = _mm256_cvtps_pd(_mm_loadu_ps(q + i + 4));
    a00 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r0 + i)), q0, a00);
    a01 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r0 + i + 4)), q1, a01);
    a10 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r1 + i)), q0, a10);
    a11 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r1 + i + 4)), q1, a11);
    a20 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r2 + i)), q0, a20);
    a21 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r2 + i + 4)), q1, a21);
    a30 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r3 + i)), q0, a30);
    a31 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(r3 + i + 4)), q1, a31);
  }
  dots[0] = HorizontalSum(_mm256_add_pd(a00, a01));
  dots[1] = HorizontalSum(_mm256_add_pd(a10, a11));
  dots[2] = HorizontalSum(_mm256_add_pd(a20, a21));
  dots[3] = HorizontalSum(_mm256_add_pd(a30, a31));
  for (; i < d; ++i) {
    const double qi = static_cast<double>(q[i]);
    dots[0] += static_cast<double>(r0[i]) * qi;
    dots[1] += static_cast<double>(r1[i]) * qi;
    dots[2] += static_cast<double>(r2[i]) * qi;
    dots[3] += static_cast<double>(r3[i]) * qi;
  }
}

__attribute__((target("avx2,fma"))) double L1Avx2(const float* a, const float* b,
                                                  size_t d) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                               _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_add_pd(acc0, _mm256_andnot_pd(sign_mask, d0));
    __m256d d1 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                               _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc1 = _mm256_add_pd(acc1, _mm256_andnot_pd(sign_mask, d1));
  }
  double total = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < d; ++i) {
    total += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return total;
}

#endif  // KNNSHAP_KERNEL_HAS_AVX2

// Double-precision dot over pre-converted rows — the inner microkernel of
// the query-block × corpus-block path. float→double conversion is exact
// and the accumulation pattern mirrors DotBlocked/DotAvx2 exactly, so
// these produce bit-identical sums to the mixed-precision row loops while
// converting each corpus row once per query block instead of once per
// query.
double DotDDBlocked(const double* a, const double* b, size_t d) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < d; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

#if KNNSHAP_KERNEL_HAS_AVX2

__attribute__((target("avx2,fma"))) double DotDDAvx2(const double* a,
                                                     const double* b, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4),
                           acc1);
  }
  double total = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < d; ++i) total += a[i] * b[i];
  return total;
}

#endif  // KNNSHAP_KERNEL_HAS_AVX2

double DotDD(KernelKind kind, const double* a, const double* b, size_t d) {
#if KNNSHAP_KERNEL_HAS_AVX2
  if (kind == KernelKind::kAvx2) return DotDDAvx2(a, b, d);
#endif
  (void)kind;
  return DotDDBlocked(a, b, d);
}

void ToDouble(const float* src, double* dst, size_t d) {
  for (size_t i = 0; i < d; ++i) dst[i] = static_cast<double>(src[i]);
}

double Dot(KernelKind kind, const float* a, const float* b, size_t d) {
#if KNNSHAP_KERNEL_HAS_AVX2
  if (kind == KernelKind::kAvx2) return DotAvx2(a, b, d);
#endif
  (void)kind;
  return DotBlocked(a, b, d);
}

double SquaredDiff(KernelKind kind, const float* a, const float* b, size_t d) {
#if KNNSHAP_KERNEL_HAS_AVX2
  if (kind == KernelKind::kAvx2) return SquaredDiffAvx2(a, b, d);
#endif
  (void)kind;
  return SquaredDiffBlocked(a, b, d);
}

double L1Dist(KernelKind kind, const float* a, const float* b, size_t d) {
#if KNNSHAP_KERNEL_HAS_AVX2
  if (kind == KernelKind::kAvx2) return L1Avx2(a, b, d);
#endif
  (void)kind;
  return L1Blocked(a, b, d);
}

// The norm identity subtracts numbers of magnitude ~‖x‖²+‖q‖² to produce
// a distance that may be orders of magnitude smaller (data with a large
// common offset), so its rounding error is relative to the *norms*, not
// the distance. When the result is small enough for that error to matter
// — below this fraction of the norm scale — the row is recomputed with
// the direct diff-square pass, whose error is relative to the distance
// itself. Rows above the threshold keep relative error ≲ d·2⁻⁵³/1e-5,
// within the advertised 1e-9 parity; rows below it become exact. Random
// data never triggers the recompute (distances ~ norm scale).
constexpr double kCancellationGuard = 1e-5;

// Fast-path distance for one corpus row. `qnorm` is the query's squared
// norm (unused by L1); `row_sq`/`row_norm` come from CorpusNorms when
// available, else a negative sentinel triggers the norm-free pass.
double FastRowDistance(KernelKind kind, Metric metric, const float* row,
                       const float* query, size_t d, double row_sq,
                       double row_norm, double qnorm, double query_norm) {
  switch (metric) {
    case Metric::kSquaredL2:
    case Metric::kL2: {
      double sq;
      if (row_sq >= 0.0) {
        sq = (row_sq - 2.0 * Dot(kind, row, query, d)) + qnorm;
        // Covers negative rounding residue and the x == q case (exact 0).
        if (sq < (row_sq + qnorm) * kCancellationGuard) {
          sq = SquaredDiff(kind, row, query, d);
        }
      } else {
        sq = SquaredDiff(kind, row, query, d);
      }
      return metric == Metric::kL2 ? std::sqrt(sq) : sq;
    }
    case Metric::kL1:
      return L1Dist(kind, row, query, d);
    case Metric::kCosine: {
      double norm = row_norm >= 0.0 ? row_norm : std::sqrt(Dot(kind, row, row, d));
      if (norm == 0.0 || query_norm == 0.0) return 1.0;
      return 1.0 - Dot(kind, row, query, d) / (norm * query_norm);
    }
  }
  KNNSHAP_CHECK(false, "unknown metric");
}

struct QueryContext {
  KernelKind kind;
  Metric metric;
  const double* row_sq = nullptr;    // squared norms (L2 family) or null
  const double* row_norm = nullptr;  // Euclidean norms (cosine) or null
  double qnorm = 0.0;                // ‖q‖²
  double query_norm = 0.0;           // ‖q‖
};

QueryContext MakeContext(KernelKind kind, Metric metric, const CorpusNorms* norms,
                         const Matrix& corpus, const float* query, size_t d) {
  QueryContext ctx;
  ctx.kind = kind;
  ctx.metric = metric;
  const bool usable = norms != nullptr && !norms->Empty() && norms->Matches(corpus);
  if (usable && (metric == Metric::kSquaredL2 || metric == Metric::kL2)) {
    ctx.row_sq = norms->Squared().data();
  }
  if (usable && metric == Metric::kCosine) {
    ctx.row_norm = norms->Euclidean().data();
  }
  if (metric == Metric::kSquaredL2 || metric == Metric::kL2 ||
      metric == Metric::kCosine) {
    ctx.qnorm = Dot(kind, query, query, d);
    ctx.query_norm = std::sqrt(ctx.qnorm);
  }
  return ctx;
}

double ContextRowDistance(const QueryContext& ctx, const float* row,
                          const float* query, size_t d, size_t row_index) {
  return FastRowDistance(ctx.kind, ctx.metric, row, query, d,
                         ctx.row_sq != nullptr ? ctx.row_sq[row_index] : -1.0,
                         ctx.row_norm != nullptr ? ctx.row_norm[row_index] : -1.0,
                         ctx.qnorm, ctx.query_norm);
}

}  // namespace

namespace internal {

double KernelDot(const float* a, const float* b, size_t d) {
  return Dot(ActiveKernel(), a, b, d);
}

}  // namespace internal

// ---------------------------------------------------------------------------
// CorpusNorms
// ---------------------------------------------------------------------------

CorpusNorms::CorpusNorms(const Matrix& corpus)
    : rows_(corpus.Rows()), cols_(corpus.Cols()) {
  squared_.resize(rows_);
  euclidean_.resize(rows_);
  const KernelKind kind = ActiveKernel();
  for (size_t i = 0; i < rows_; ++i) {
    const float* row = corpus.Row(i).data();
    double sq = Dot(kind, row, row, cols_);
    squared_[i] = sq;
    euclidean_[i] = std::sqrt(sq);
  }
}

CorpusNorms NormsForMetric(const Matrix& corpus, Metric metric) {
  return metric == Metric::kL1 ? CorpusNorms() : CorpusNorms(corpus);
}

// ---------------------------------------------------------------------------
// Batch entry points
// ---------------------------------------------------------------------------

namespace {

// Shared row-range core of ComputeDistances / ComputeDistancesRange:
// out[i - row_begin] = distance(corpus.Row(i), q) for i in [row_begin,
// row_end). The kernel has already been resolved by the caller so every
// block of a sharded single-query pass runs the same arithmetic.
void ComputeDistancesCore(KernelKind kind, const Matrix& corpus, const float* q,
                          Metric metric, const CorpusNorms* norms,
                          size_t row_begin, size_t row_end,
                          std::span<double> out) {
  const size_t d = corpus.Cols();
  if (kind == KernelKind::kReference) {
    for (size_t i = row_begin; i < row_end; ++i) {
      out[i - row_begin] =
          knnshap::internal::DistanceUnchecked(corpus.Row(i).data(), q, d, metric);
    }
    return;
  }
  QueryContext ctx = MakeContext(kind, metric, norms, corpus, q, d);
  // The metric/norms dispatch is hoisted out of the row loop: at small d
  // the per-row switch and sentinel branches are a measurable fraction of
  // the pass. Arithmetic is identical to FastRowDistance in every branch.
  switch (metric) {
    case Metric::kSquaredL2:
    case Metric::kL2: {
      const bool take_root = metric == Metric::kL2;
      if (ctx.row_sq != nullptr) {
        const double* row_sq = ctx.row_sq;
        const double qnorm = ctx.qnorm;
        size_t i = row_begin;
#if KNNSHAP_KERNEL_HAS_AVX2
        if (kind == KernelKind::kAvx2) {
          // Interleaved 4-row dots (bit-identical to DotAvx2 per row, see
          // DotAvx2x4); the rare cancellation-guard recompute and the <4
          // row tail fall through to the generic per-row path below.
          double dots[4];
          for (; i + 4 <= row_end; i += 4) {
            DotAvx2x4(corpus.Row(i).data(), corpus.Row(i + 1).data(),
                      corpus.Row(i + 2).data(), corpus.Row(i + 3).data(), q, d,
                      dots);
            for (size_t j = 0; j < 4; ++j) {
              double sq = (row_sq[i + j] - 2.0 * dots[j]) + qnorm;
              if (sq < (row_sq[i + j] + qnorm) * kCancellationGuard) {
                sq = SquaredDiff(kind, corpus.Row(i + j).data(), q, d);
              }
              out[i + j - row_begin] = take_root ? std::sqrt(sq) : sq;
            }
          }
        }
#endif
        for (; i < row_end; ++i) {
          const float* row = corpus.Row(i).data();
          double sq = (row_sq[i] - 2.0 * Dot(kind, row, q, d)) + qnorm;
          if (sq < (row_sq[i] + qnorm) * kCancellationGuard) {
            sq = SquaredDiff(kind, row, q, d);
          }
          out[i - row_begin] = take_root ? std::sqrt(sq) : sq;
        }
      } else {
        for (size_t i = row_begin; i < row_end; ++i) {
          double sq = SquaredDiff(kind, corpus.Row(i).data(), q, d);
          out[i - row_begin] = take_root ? std::sqrt(sq) : sq;
        }
      }
      return;
    }
    case Metric::kL1:
      for (size_t i = row_begin; i < row_end; ++i) {
        out[i - row_begin] = L1Dist(kind, corpus.Row(i).data(), q, d);
      }
      return;
    case Metric::kCosine:
      for (size_t i = row_begin; i < row_end; ++i) {
        out[i - row_begin] = ContextRowDistance(ctx, corpus.Row(i).data(), q, d, i);
      }
      return;
  }
  KNNSHAP_CHECK(false, "unknown metric");
}

}  // namespace

void ComputeDistances(const Matrix& corpus, std::span<const float> query,
                      Metric metric, const CorpusNorms* norms,
                      std::span<double> out) {
  const size_t rows = corpus.Rows();
  const size_t d = corpus.Cols();
  KNNSHAP_CHECK(query.size() == d, "query dimension mismatch");
  KNNSHAP_CHECK(out.size() >= rows, "output buffer too small");
  const KernelKind kind =
      internal::ResolveDistanceKernel(ActiveKernel(), metric, d);
  ComputeDistancesCore(kind, corpus, query.data(), metric, norms, 0, rows, out);
}

void ComputeDistancesRange(const Matrix& corpus, std::span<const float> query,
                           Metric metric, const CorpusNorms* norms,
                           size_t row_begin, size_t row_end,
                           std::span<double> out) {
  const size_t d = corpus.Cols();
  KNNSHAP_CHECK(query.size() == d, "query dimension mismatch");
  KNNSHAP_CHECK(row_begin <= row_end && row_end <= corpus.Rows(),
                "row range out of bounds");
  KNNSHAP_CHECK(out.size() >= row_end - row_begin, "output buffer too small");
  const KernelKind kind =
      internal::ResolveDistanceKernel(ActiveKernel(), metric, d);
  ComputeDistancesCore(kind, corpus, query.data(), metric, norms, row_begin,
                       row_end, out);
}

void ComputeDistanceMatrix(const Matrix& corpus, const Matrix& queries,
                           Metric metric, const CorpusNorms* norms,
                           std::span<double> out) {
  const size_t rows = corpus.Rows();
  const size_t d = corpus.Cols();
  const size_t num_queries = queries.Rows();
  KNNSHAP_CHECK(queries.Cols() == d || num_queries == 0,
                "query dimension mismatch");
  KNNSHAP_CHECK(out.size() >= rows * num_queries, "output buffer too small");
  const KernelKind kind =
      internal::ResolveDistanceKernel(ActiveKernel(), metric, d);
  if (kind == KernelKind::kReference) {
    for (size_t j = 0; j < num_queries; ++j) {
      const float* q = queries.Row(j).data();
      double* row_out = out.data() + j * rows;
      for (size_t i = 0; i < rows; ++i) {
        row_out[i] =
            knnshap::internal::DistanceUnchecked(corpus.Row(i).data(), q, d, metric);
      }
    }
    return;
  }
  // Per-query contexts (query norms) are computed once up front.
  std::vector<QueryContext> contexts;
  contexts.reserve(num_queries);
  for (size_t j = 0; j < num_queries; ++j) {
    contexts.push_back(
        MakeContext(kind, metric, norms, corpus, queries.Row(j).data(), d));
  }
  const bool identity = num_queries > 0 && (contexts[0].row_sq != nullptr ||
                                            contexts[0].row_norm != nullptr);
  if (identity) {
    // Norm-identity microkernel: a block of queries and each corpus row
    // are widened to double exactly once, so the inner loop is a pure
    // double·double dot (no per-element converts) and the corpus streams
    // from memory once per query block rather than once per query.
    // Conversion is exact and the accumulation pattern matches the
    // per-query path, so results are bit-identical to ComputeDistances.
    // Queries are processed in bounded blocks so the widened buffer stays
    // cache-sized however large the query set is.
    constexpr size_t kQueryBlock = 32;
    static thread_local std::vector<double> query_block;
    static thread_local std::vector<double> row_buffer;
    row_buffer.resize(d);
    for (size_t q0 = 0; q0 < num_queries; q0 += kQueryBlock) {
      const size_t q1 = std::min(num_queries, q0 + kQueryBlock);
      query_block.resize((q1 - q0) * d);
      for (size_t j = q0; j < q1; ++j) {
        ToDouble(queries.Row(j).data(), query_block.data() + (j - q0) * d, d);
      }
      for (size_t i = 0; i < rows; ++i) {
        ToDouble(corpus.Row(i).data(), row_buffer.data(), d);
        for (size_t j = q0; j < q1; ++j) {
          const QueryContext& ctx = contexts[j];
          double dot =
              DotDD(kind, row_buffer.data(), query_block.data() + (j - q0) * d, d);
          double dist;
          if (metric == Metric::kCosine) {
            double norm = ctx.row_norm[i];
            dist = (norm == 0.0 || ctx.query_norm == 0.0)
                       ? 1.0
                       : 1.0 - dot / (norm * ctx.query_norm);
          } else {
            double sq = (ctx.row_sq[i] - 2.0 * dot) + ctx.qnorm;
            if (sq < (ctx.row_sq[i] + ctx.qnorm) * kCancellationGuard) {
              // Same recompute as FastRowDistance, on the original floats,
              // so the block path stays bit-identical to the per-query one.
              sq = SquaredDiff(kind, corpus.Row(i).data(), queries.Row(j).data(), d);
            }
            dist = metric == Metric::kL2 ? std::sqrt(sq) : sq;
          }
          out[j * rows + i] = dist;
        }
      }
    }
    return;
  }
  // No usable norms (or L1): per-row mixed-precision loops over corpus
  // blocks sized to stay cache-resident while the whole query block passes
  // over them, so large corpora stream from memory once per block of
  // queries rather than once per query.
  constexpr size_t kBlockBytes = 256 * 1024;
  const size_t block_rows = std::max<size_t>(1, kBlockBytes / ((d + 1) * sizeof(float)));
  for (size_t r0 = 0; r0 < rows; r0 += block_rows) {
    const size_t r1 = std::min(rows, r0 + block_rows);
    for (size_t j = 0; j < num_queries; ++j) {
      const float* q = queries.Row(j).data();
      double* row_out = out.data() + j * rows;
      const QueryContext& ctx = contexts[j];
      for (size_t i = r0; i < r1; ++i) {
        row_out[i] = ContextRowDistance(ctx, corpus.Row(i).data(), q, d, i);
      }
    }
  }
}

void ComputeDistancesFor(const Matrix& corpus, std::span<const int> rows,
                         std::span<const float> query, Metric metric,
                         const CorpusNorms* norms, std::span<double> out) {
  const size_t d = corpus.Cols();
  KNNSHAP_CHECK(query.size() == d, "query dimension mismatch");
  KNNSHAP_CHECK(out.size() >= rows.size(), "output buffer too small");
  const KernelKind kind =
      internal::ResolveDistanceKernel(ActiveKernel(), metric, d);
  const float* q = query.data();
  if (kind == KernelKind::kReference) {
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i] = knnshap::internal::DistanceUnchecked(
          corpus.Row(static_cast<size_t>(rows[i])).data(), q, d, metric);
    }
    return;
  }
  QueryContext ctx = MakeContext(kind, metric, norms, corpus, q, d);
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t row = static_cast<size_t>(rows[i]);
    out[i] = ContextRowDistance(ctx, corpus.Row(row).data(), q, d, row);
  }
}

// ArgsortDistances and SelectTopK are declared in this header for their
// historical call sites but implemented in knn/selection.cpp alongside the
// streaming top-R selectors that share their packed-key ordering.

}  // namespace knnshap
