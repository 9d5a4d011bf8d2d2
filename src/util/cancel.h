// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// CancelToken — cooperative deadlines and cancellation for valuation work.
//
// A token is either plain (cancellable by hand, e.g. server shutdown) or
// deadline-bearing (expires when a steady_clock instant passes). The
// expensive loops — distance batches, argsort, the SV recursion, MC
// permutations, the wknn DP — poll the *thread-local active* token at
// block granularity via CancelRequested() and, when it fires, bail out
// early returning structurally valid (right-sized) placeholder results.
// No exceptions are thrown: worker threads in the pool must never unwind
// (ThreadPool::WorkerLoop would std::terminate), so cancellation is a
// flag the engine re-checks after the run, discarding the partial result
// and answering a structured deadline_exceeded Status instead.
//
// Cost model mirrors obs/trace.h: with no active token the poll is one
// thread-local load + branch; with a token that has already fired, the
// result is latched so later polls skip the clock read. Only a live
// deadline-bearing token pays a steady_clock read per poll, and polls
// sit at block granularity (hundreds-of-rows chunks), not per element —
// bench_serve's <1% warm-replay overhead gate covers the always-on cost.

#ifndef KNNSHAP_UTIL_CANCEL_H_
#define KNNSHAP_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace knnshap {

/// A cancellation source/view: manual Cancel() or a steady-clock deadline.
/// Expired() is safe to call concurrently from any number of threads.
class CancelToken {
 public:
  /// A token that never expires on its own (manual Cancel() only).
  CancelToken() = default;

  /// A token that expires `deadline_ms` milliseconds from construction.
  /// `deadline_ms <= 0` constructs an already-expired token (useful for
  /// deterministic deadline behavior: "deadline_ms":0 answers
  /// deadline_exceeded regardless of timing). A deadline past the clock's
  /// range saturates at its last instant rather than wrapping around. The
  /// atomic latch makes the type non-copyable, hence a constructor rather
  /// than a factory.
  explicit CancelToken(int64_t deadline_ms)
      : has_deadline_(true), deadline_(DeadlineAfter(deadline_ms)) {
    if (deadline_ms <= 0) fired_.store(true, std::memory_order_relaxed);
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Manual cancellation (server shutdown, client disconnect).
  void Cancel() const { fired_.store(true, std::memory_order_relaxed); }

  /// True once the deadline passed or Cancel() was called. Latches: after
  /// the first true result subsequent calls skip the clock read.
  bool Expired() const {
    if (fired_.load(std::memory_order_relaxed)) return true;
    if (!has_deadline_) return false;
    if (std::chrono::steady_clock::now() < deadline_) return false;
    fired_.store(true, std::memory_order_relaxed);
    return true;
  }

  bool has_deadline() const { return has_deadline_; }

  /// Milliseconds until the deadline, clamped at 0 once it has passed;
  /// -1 for a deadline-free token. The shard router forwards *remaining*
  /// budget (not the original deadline_ms) across the worker boundary, so
  /// a child token constructed from this value can never fire later than
  /// its parent — the parent's post-run Expired() check stays the
  /// authority on whether a partial result is discarded.
  int64_t RemainingMs() const {
    if (!has_deadline_) return -1;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline_) return 0;
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline_ - now)
        .count();
  }

  /// Seconds the clock now stands past the deadline (0 for deadline-free
  /// or unexpired tokens). Observability: the engine's cancellation
  /// overshoot histogram records this when a request is abandoned —
  /// block-granularity polling means a request overruns its deadline by
  /// up to one block of work, and this is that overrun, measured.
  double OvershootSeconds() const {
    if (!has_deadline_) return 0.0;
    const auto now = std::chrono::steady_clock::now();
    if (now < deadline_) return 0.0;
    return std::chrono::duration<double>(now - deadline_).count();
  }

 private:
  static std::chrono::steady_clock::time_point DeadlineAfter(int64_t ms) {
    const auto now = std::chrono::steady_clock::now();
    const auto last = std::chrono::steady_clock::time_point::max();
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(last - now);
    if (ms >= headroom.count()) return last;
    return now + std::chrono::milliseconds(ms > 0 ? ms : 0);
  }

  // Cancel()/Expired() are conceptually const observers of an external
  // event (time passing, a caller's decision); the latch is bookkeeping.
  mutable std::atomic<bool> fired_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

namespace internal {
/// The calling thread's active-token slot. A function-local thread_local
/// behind an inline accessor, not an extern variable: gcc's UBSan at -O2
/// reports stores through an extern thread_local's TLS wrapper as stores
/// to a null pointer and aborts.
inline const CancelToken*& ActiveCancelSlot() {
  static thread_local const CancelToken* active = nullptr;
  return active;
}
}  // namespace internal

/// The calling thread's active token (deep-loop poll target), or nullptr.
inline const CancelToken* ActiveCancelToken() {
  return internal::ActiveCancelSlot();
}

/// The poll the deep loops use: false when no token is active.
inline bool CancelRequested() {
  const CancelToken* token = internal::ActiveCancelSlot();
  return token != nullptr && token->Expired();
}

/// RAII: makes `token` the calling thread's active token for the scope,
/// restoring the previous one on destruction (same idiom as
/// TraceActivation). Passing nullptr shields a scope from cancellation.
class CancelActivation {
 public:
  explicit CancelActivation(const CancelToken* token)
      : previous_(internal::ActiveCancelSlot()) {
    internal::ActiveCancelSlot() = token;
  }
  ~CancelActivation() { internal::ActiveCancelSlot() = previous_; }
  CancelActivation(const CancelActivation&) = delete;
  CancelActivation& operator=(const CancelActivation&) = delete;

 private:
  const CancelToken* previous_;
};

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_CANCEL_H_
