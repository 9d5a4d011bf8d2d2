// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Tests for the cooperative cancellation primitive: token semantics
// (manual, deadline, already-expired, latching), the thread-local
// activation protocol the deep loops poll through, and the overshoot
// measurement the engine's cancellation histogram records.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

#include "util/cancel.h"

namespace knnshap {
namespace {

TEST(CancelTokenTest, DefaultTokenNeverExpiresOnItsOwn) {
  CancelToken token;
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.Expired());
  EXPECT_EQ(token.OvershootSeconds(), 0.0);
}

TEST(CancelTokenTest, ManualCancelLatches) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.Expired());
  EXPECT_TRUE(token.Expired());  // stays expired
}

TEST(CancelTokenTest, ZeroDeadlineIsBornExpired) {
  // The deterministic deadline: "deadline_ms":0 must answer
  // deadline_exceeded regardless of machine speed, so the token is
  // expired before the first poll.
  CancelToken token(0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.Expired());
}

TEST(CancelTokenTest, NegativeDeadlineIsBornExpired) {
  CancelToken token(-5);
  EXPECT_TRUE(token.Expired());
}

TEST(CancelTokenTest, FutureDeadlineExpiresAfterItPasses) {
  CancelToken token(20);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.Expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(token.Expired());
  EXPECT_GT(token.OvershootSeconds(), 0.0);
}

TEST(CancelTokenTest, GenerousDeadlineDoesNotExpire) {
  CancelToken token(60'000);
  EXPECT_FALSE(token.Expired());
  EXPECT_EQ(token.OvershootSeconds(), 0.0);
}

TEST(CancelTokenTest, FarDeadlineSaturatesInsteadOfWrapping) {
  // now + 1e13 ms overflows int64 nanoseconds; the deadline must
  // saturate at the clock's last instant, not wrap into the past.
  for (int64_t ms : {int64_t{10'000'000'000'000},
                     std::numeric_limits<int64_t>::max()}) {
    CancelToken token(ms);
    EXPECT_FALSE(token.Expired()) << ms;
    EXPECT_GT(token.RemainingMs(), int64_t{1} << 40) << ms;
  }
}

TEST(CancelActivationTest, NoActiveTokenMeansNoCancellation) {
  EXPECT_EQ(ActiveCancelToken(), nullptr);
  EXPECT_FALSE(CancelRequested());
}

TEST(CancelActivationTest, ActivationScopesAndRestores) {
  CancelToken outer(0);
  CancelToken inner;  // never expires
  {
    CancelActivation activate_outer(&outer);
    EXPECT_EQ(ActiveCancelToken(), &outer);
    EXPECT_TRUE(CancelRequested());
    {
      // Nested activation shadows, destruction restores — exactly the
      // TraceActivation idiom the per-worker run path relies on.
      CancelActivation activate_inner(&inner);
      EXPECT_EQ(ActiveCancelToken(), &inner);
      EXPECT_FALSE(CancelRequested());
    }
    EXPECT_EQ(ActiveCancelToken(), &outer);
    EXPECT_TRUE(CancelRequested());
  }
  EXPECT_EQ(ActiveCancelToken(), nullptr);
  EXPECT_FALSE(CancelRequested());
}

TEST(CancelActivationTest, NullActivationShieldsAScope) {
  CancelToken expired(0);
  CancelActivation activate(&expired);
  ASSERT_TRUE(CancelRequested());
  {
    CancelActivation shield(nullptr);
    EXPECT_FALSE(CancelRequested());
  }
  EXPECT_TRUE(CancelRequested());
}

TEST(CancelActivationTest, ActivationIsPerThread) {
  CancelToken expired(0);
  CancelActivation activate(&expired);
  ASSERT_TRUE(CancelRequested());
  bool seen_on_worker = true;
  std::thread worker([&] { seen_on_worker = CancelRequested(); });
  worker.join();
  // The token rides this thread only; a fresh thread starts clean.
  EXPECT_FALSE(seen_on_worker);
}

TEST(CancelTokenTest, ExpiredIsSafeToRaceWithCancel) {
  // TSan-facing: concurrent Cancel()/Expired() on one token must be free
  // of data races (both sides go through the atomic latch).
  CancelToken token(5);
  std::thread canceller([&] { token.Cancel(); });
  bool result = false;
  for (int i = 0; i < 1000; ++i) result = token.Expired();
  canceller.join();
  EXPECT_TRUE(token.Expired());
  (void)result;
}

}  // namespace
}  // namespace knnshap
