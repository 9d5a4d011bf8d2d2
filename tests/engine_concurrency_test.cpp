// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Concurrency coverage for ValuationEngine: N threads firing mixed
// methods over multiple corpora must produce bitwise the same values as
// the serial path, with and without the result cache, and racing
// InvalidateTrain calls must never corrupt state. Assertions are written
// to be TSan-friendly: shared state is only read after thread joins.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/registry.h"
#include "test_util.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/fingerprint.h"
#include "util/thread_pool.h"

namespace knnshap {
namespace {

using testing_util::RandomClassDataset;
using testing_util::RandomRegDataset;

struct Workload {
  std::string method;
  std::shared_ptr<const Dataset> train;
  std::shared_ptr<const Dataset> test;
  ValuatorParams params;
};

ValuationRequest ToRequest(const Workload& w, bool parallel, bool use_cache) {
  ValuationRequest request;
  request.method = w.method;
  request.train = w.train;
  request.test = w.test;
  request.params = w.params;
  request.parallel = parallel;
  request.use_cache = use_cache;
  return request;
}

std::vector<Workload> MixedWorkloads() {
  auto class_a =
      std::make_shared<const Dataset>(RandomClassDataset(60, 3, 4, 101));
  auto class_b =
      std::make_shared<const Dataset>(RandomClassDataset(45, 2, 4, 102));
  auto reg = std::make_shared<const Dataset>(RandomRegDataset(50, 4, 103));
  auto class_q = std::make_shared<const Dataset>(RandomClassDataset(8, 3, 4, 104));
  auto class_q2 = std::make_shared<const Dataset>(RandomClassDataset(5, 2, 4, 105));
  auto reg_q = std::make_shared<const Dataset>(RandomRegDataset(6, 4, 106));

  std::vector<Workload> workloads;
  ValuatorParams params;
  params.k = 3;
  workloads.push_back({"exact", class_a, class_q, params});
  workloads.push_back({"exact-corrected", class_a, class_q, params});
  workloads.push_back({"truncated", class_b, class_q2, params});
  workloads.push_back({"exact", class_b, class_q2, params});
  ValuatorParams reg_params;
  reg_params.k = 3;
  reg_params.task = KnnTask::kRegression;
  workloads.push_back({"regression", reg, reg_q, reg_params});
  ValuatorParams mc_params;
  mc_params.k = 3;
  mc_params.max_permutations = 20;
  workloads.push_back({"mc", class_b, class_q2, mc_params});
  ValuatorParams weighted_params;
  weighted_params.k = 2;
  weighted_params.task = KnnTask::kWeightedClassification;
  workloads.push_back({"weighted", class_a, class_q, weighted_params});
  return workloads;
}

TEST(EngineConcurrencyTest, MixedMethodsAcrossThreadsMatchSerial) {
  std::vector<Workload> workloads = MixedWorkloads();

  // Serial reference values, computed on a cache-less engine.
  std::vector<std::vector<double>> expected;
  {
    EngineOptions options;
    options.result_cache_capacity = 0;
    ValuationEngine serial(options);
    for (const auto& w : workloads) {
      ValuationReport report = serial.Value(ToRequest(w, /*parallel=*/false,
                                                      /*use_cache=*/false));
      ASSERT_TRUE(report.ok()) << report.status.ToString();
      expected.push_back(report.values);
    }
  }

  const size_t kThreads = 8;
  const int kRoundsPerThread = 6;
  ValuationEngine engine;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        // Stagger the workload order per thread, alternate cache and
        // intra-request parallelism so the fitted set, the cache and the
        // shared pool are all contended.
        const size_t w = (t + static_cast<size_t>(round)) % workloads.size();
        const bool parallel = (t + static_cast<size_t>(round)) % 2 == 0;
        const bool use_cache = t % 2 == 0;
        ValuationReport report =
            engine.Value(ToRequest(workloads[w], parallel, use_cache));
        if (!report.ok()) {
          errors[t] = report.status.ToString();
          failures.fetch_add(1);
          return;
        }
        if (report.values != expected[w]) {  // bitwise comparison
          errors[t] = "values diverged for " + workloads[w].method;
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0) << errors[0] << errors[1] << errors[2] << errors[3]
                                << errors[4] << errors[5] << errors[6] << errors[7];
  // Every workload fitted at most once per (train, method, params) key.
  EXPECT_LE(engine.FittedCount(), workloads.size());
}

TEST(EngineConcurrencyTest, InvalidateTrainRacesWithTraffic) {
  std::vector<Workload> workloads = MixedWorkloads();
  ValuationEngine engine;
  const uint64_t target_fp = DatasetFingerprint(*workloads[0].train);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        const size_t w = (t + static_cast<size_t>(round)) % workloads.size();
        ValuationReport report =
            engine.Value(ToRequest(workloads[w], /*parallel=*/false,
                                   /*use_cache=*/true));
        if (!report.ok()) failures.fetch_add(1);
      }
    });
  }
  std::thread invalidator([&] {
    while (!stop.load()) {
      engine.InvalidateTrain(target_fp);
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  invalidator.join();
  EXPECT_EQ(failures.load(), 0);

  // After the storm, a fresh request still computes correct values.
  ValuationReport report = engine.Value(
      ToRequest(workloads[0], /*parallel=*/false, /*use_cache=*/false));
  ASSERT_TRUE(report.ok()) << report.status.ToString();
  EngineOptions options;
  options.result_cache_capacity = 0;
  ValuationEngine serial(options);
  ValuationReport expected = serial.Value(
      ToRequest(workloads[0], /*parallel=*/false, /*use_cache=*/false));
  ASSERT_TRUE(expected.ok()) << expected.status.ToString();
  EXPECT_EQ(report.values, expected.values);
}

// --- Per-corpus fit locks ---------------------------------------------------

/// Rendezvous two concurrent OnFit calls: each arrival signals and then
/// waits (bounded) for the other. Under the per-corpus fit locks both
/// arrive while neither has finished — under the old engine-wide fit lock
/// the second could never enter until the first returned, so `overlapped`
/// stays false and the first fit stalls out the timeout.
struct FitRendezvous {
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  bool overlapped = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mutex);
    if (++arrived >= 2) {
      overlapped = true;
      cv.notify_all();
      return;
    }
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return overlapped; });
  }
};

class RendezvousValuator : public Valuator {
 public:
  RendezvousValuator(ValuatorParams params, FitRendezvous* rendezvous)
      : Valuator(std::move(params)), rendezvous_(rendezvous) {}
  const char* Method() const override { return "rendezvous"; }
  void ValueOne(const Dataset& /*test*/, size_t /*row*/,
                QueryValues* out) const override {
    out->values.assign(Train().Size(), 0.0);
  }

 protected:
  void OnFit() override { rendezvous_->Enter(); }

 private:
  FitRendezvous* rendezvous_;
};

TEST(EngineConcurrencyTest, ColdFitsOfDifferentCorporaOverlap) {
  // The ROADMAP open item: fitting used to run under the single engine
  // mutex, so cold fits of *different* corpora serialized. Two slow fits
  // must now be in OnFit simultaneously.
  FitRendezvous rendezvous;
  ValuatorRegistry registry;
  MethodSchema schema;
  schema.name = "rendezvous";
  schema.params = ResolveParams({"k"});
  schema.tasks = {KnnTask::kClassification};
  registry.Register(schema, [&](const ValuatorParams& params) {
    return std::make_unique<RendezvousValuator>(params, &rendezvous);
  });

  EngineOptions options;
  options.registry = &registry;
  ValuationEngine engine(options);

  auto corpus_a = std::make_shared<const Dataset>(RandomClassDataset(20, 2, 3, 301));
  auto corpus_b = std::make_shared<const Dataset>(RandomClassDataset(25, 2, 3, 302));
  auto queries = std::make_shared<const Dataset>(RandomClassDataset(2, 2, 3, 303));

  std::atomic<int> failures{0};
  auto fire = [&](std::shared_ptr<const Dataset> train) {
    ValuationRequest request;
    request.method = "rendezvous";
    request.train = std::move(train);
    request.test = queries;
    if (!engine.Value(request).ok()) failures.fetch_add(1);
  };
  std::thread first(fire, corpus_a);
  std::thread second(fire, corpus_b);
  first.join();
  second.join();

  EXPECT_TRUE(rendezvous.overlapped) << "cold fits serialized";
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.FittedCount(), 2u);
}

TEST(EngineConcurrencyTest, DuplicateColdFitsRunOnce) {
  // Same (corpus, method, params) from many threads: exactly one factory
  // call and one fit; the laggards wait on the slot and share the result.
  std::atomic<int> factory_calls{0};
  ValuatorRegistry registry;
  MethodSchema schema;
  schema.name = "rendezvous";
  schema.params = ResolveParams({"k"});
  schema.tasks = {KnnTask::kClassification};
  registry.Register(schema, [&](const ValuatorParams& params) {
    factory_calls.fetch_add(1);
    auto rendezvous = std::make_shared<FitRendezvous>();
    rendezvous->overlapped = true;  // Enter() returns immediately
    struct Holder : RendezvousValuator {
      std::shared_ptr<FitRendezvous> keep;
      Holder(ValuatorParams p, std::shared_ptr<FitRendezvous> r)
          : RendezvousValuator(std::move(p), r.get()), keep(std::move(r)) {}
    };
    return std::make_unique<Holder>(params, std::move(rendezvous));
  });

  EngineOptions options;
  options.registry = &registry;
  ValuationEngine engine(options);
  auto corpus = std::make_shared<const Dataset>(RandomClassDataset(30, 2, 3, 311));
  auto queries = std::make_shared<const Dataset>(RandomClassDataset(2, 2, 3, 312));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      ValuationRequest request;
      request.method = "rendezvous";
      request.train = corpus;
      request.test = queries;
      request.use_cache = false;
      if (!engine.Value(request).ok()) failures.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(factory_calls.load(), 1);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.FittedCount(), 1u);
}

/// OnFit blocks at a gate the test opens, so invalidation can be timed to
/// land strictly inside a fit.
class GatedValuator : public Valuator {
 public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    std::atomic<bool> entered{false};
  };

  GatedValuator(ValuatorParams params, Gate* gate)
      : Valuator(std::move(params)), gate_(gate) {}
  const char* Method() const override { return "gated"; }
  void ValueOne(const Dataset& /*test*/, size_t /*row*/,
                QueryValues* out) const override {
    out->values.assign(Train().Size(), 0.0);
  }

 protected:
  void OnFit() override {
    std::unique_lock<std::mutex> lock(gate_->mutex);
    gate_->entered.store(true);
    gate_->cv.wait_for(lock, std::chrono::seconds(10), [&] { return gate_->open; });
  }

 private:
  Gate* gate_;
};

TEST(EngineConcurrencyTest, InvalidateTrainPoisonsAnInFlightFit) {
  // A corpus dropped while its cold fit is still running must not leave
  // the finished structure resident: the in-flight request is still
  // served (its snapshot), but the fitted set ends empty — the
  // reclaim-immediately guarantee holds across the fit-outside-the-lock
  // window.
  GatedValuator::Gate gate;
  ValuatorRegistry registry;
  MethodSchema schema;
  schema.name = "gated";
  schema.params = ResolveParams({"k"});
  schema.tasks = {KnnTask::kClassification};
  registry.Register(schema, [&](const ValuatorParams& params) {
    return std::make_unique<GatedValuator>(params, &gate);
  });

  EngineOptions options;
  options.registry = &registry;
  ValuationEngine engine(options);
  auto corpus = std::make_shared<const Dataset>(RandomClassDataset(20, 2, 3, 331));
  auto queries = std::make_shared<const Dataset>(RandomClassDataset(2, 2, 3, 332));
  const uint64_t corpus_fp = DatasetFingerprint(*corpus);

  std::atomic<bool> request_ok{false};
  std::thread fitter([&] {
    ValuationRequest request;
    request.method = "gated";
    request.train = corpus;
    request.test = queries;
    request.train_fingerprint = corpus_fp;
    request_ok.store(engine.Value(request).ok());
  });
  while (!gate.entered.load()) std::this_thread::yield();

  // Invalidation lands mid-fit; it must neither block on the fit nor let
  // the fit install afterwards.
  engine.InvalidateTrain(corpus_fp);
  {
    std::lock_guard<std::mutex> lock(gate.mutex);
    gate.open = true;
  }
  gate.cv.notify_all();
  fitter.join();

  EXPECT_TRUE(request_ok.load());
  EXPECT_EQ(engine.FittedCount(), 0u);  // poisoned fit was not installed
}

TEST(EngineConcurrencyTest, ThrowingFitReleasesTheSlotAndRetries) {
  // A factory (an arbitrary std::function) that throws must not leave the
  // in-progress fit slot behind — and the exception must not unwind into
  // the caller either: on the serve path Value() runs on pool worker
  // threads, where an escaping exception would terminate the process. It
  // becomes a structured internal error, and the *next* request for the
  // same key retries instead of deadlocking on an orphaned slot.
  std::atomic<int> calls{0};
  ValuatorRegistry registry;
  MethodSchema schema;
  schema.name = "flaky";
  schema.params = ResolveParams({"k"});
  schema.tasks = {KnnTask::kClassification};
  registry.Register(schema,
                    [&](const ValuatorParams& params) -> std::unique_ptr<Valuator> {
                      if (calls.fetch_add(1) == 0) {
                        throw std::runtime_error("transient failure");
                      }
                      auto rendezvous = std::make_shared<FitRendezvous>();
                      rendezvous->overlapped = true;
                      struct Holder : RendezvousValuator {
                        std::shared_ptr<FitRendezvous> keep;
                        Holder(ValuatorParams p, std::shared_ptr<FitRendezvous> r)
                            : RendezvousValuator(std::move(p), r.get()),
                              keep(std::move(r)) {}
                      };
                      return std::make_unique<Holder>(params, std::move(rendezvous));
                    });

  EngineOptions options;
  options.registry = &registry;
  ValuationEngine engine(options);
  auto corpus = std::make_shared<const Dataset>(RandomClassDataset(20, 2, 3, 321));
  auto queries = std::make_shared<const Dataset>(RandomClassDataset(2, 2, 3, 322));
  ValuationRequest request;
  request.method = "flaky";
  request.train = corpus;
  request.test = queries;

  ValuationReport failed = engine.Value(request);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
  EXPECT_NE(failed.status.message().find("fit failed"), std::string::npos)
      << failed.status.ToString();
  // The key is not wedged: the retry fits and serves.
  ValuationReport retry = engine.Value(request);
  EXPECT_TRUE(retry.ok()) << retry.status.ToString();
  EXPECT_EQ(calls.load(), 2);
}

TEST(EngineConcurrencyTest, WaitersOnAFailedFitRetryLikeASerialLoop) {
  // Duplicates that waited on a fit which threw retry the key themselves,
  // as they would one after the other: when every fit throws, each answers
  // its own fit's error; when only the owner's fit threw, they are served.
  for (bool every_fit_throws : {true, false}) {
    SCOPED_TRACE(every_fit_throws ? "every fit throws" : "the first fit throws");
    GatedValuator::Gate gate;
    std::atomic<int> calls{0};
    ValuatorRegistry registry;
    MethodSchema schema;
    schema.name = "gated";
    schema.params = ResolveParams({"k"});
    schema.tasks = {KnnTask::kClassification};
    registry.Register(schema, [&](const ValuatorParams& params)
                                  -> std::unique_ptr<Valuator> {
      if (calls.fetch_add(1) == 0) {
        std::unique_lock<std::mutex> lock(gate.mutex);
        gate.entered.store(true);
        gate.cv.wait_for(lock, std::chrono::seconds(10), [&] { return gate.open; });
        throw std::runtime_error("owner failure");
      }
      if (every_fit_throws) throw std::runtime_error("retry failure");
      return std::make_unique<GatedValuator>(params, &gate);  // gate is open
    });

    EngineOptions options;
    options.registry = &registry;
    ValuationEngine engine(options);
    auto corpus = std::make_shared<const Dataset>(RandomClassDataset(20, 2, 3, 351));
    auto queries = std::make_shared<const Dataset>(RandomClassDataset(2, 2, 3, 352));
    auto value = [&] {
      ValuationRequest request;
      request.method = "gated";
      request.train = corpus;
      request.test = queries;
      request.use_cache = false;
      return engine.Value(request);
    };
    std::future<ValuationReport> owner = std::async(std::launch::async, value);
    while (!gate.entered.load()) std::this_thread::yield();
    std::vector<std::future<ValuationReport>> duplicates;
    for (int i = 0; i < 3; ++i) {
      duplicates.push_back(std::async(std::launch::async, value));
    }
    // Let the duplicates block on the owner's slot. One that arrives after
    // the owner failed fits as an owner itself, which answers the same.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    {
      std::lock_guard<std::mutex> lock(gate.mutex);
      gate.open = true;
    }
    gate.cv.notify_all();

    ValuationReport owner_report = owner.get();
    EXPECT_NE(owner_report.status.message().find(
                  "method 'gated' fit failed: owner failure"),
              std::string::npos)
        << owner_report.status.ToString();
    for (auto& duplicate : duplicates) {
      ValuationReport report = duplicate.get();
      if (every_fit_throws) {
        EXPECT_EQ(report.status.code(), StatusCode::kInternal);
        EXPECT_NE(report.status.message().find(
                      "method 'gated' fit failed: retry failure"),
                  std::string::npos)
            << report.status.ToString();
      } else {
        EXPECT_TRUE(report.ok()) << report.status.ToString();
      }
    }
    EXPECT_EQ(engine.FittedCount(), every_fit_throws ? 0u : 1u);
    // Every duplicate fits once when every fit throws; otherwise one retry
    // fits and the other duplicates reuse it.
    EXPECT_EQ(calls.load(), every_fit_throws ? 4 : 2);
  }
}

TEST(EngineConcurrencyTest, CancelledFitReleasesTheSlotWithoutPoisoning) {
  // A fit whose deadline fires mid-flight must retire its slot as
  // cancelled — installing nothing in the registry — and the next request
  // for the same key must become a fresh owner and fit cleanly, not
  // deadlock on an orphaned slot or inherit a half-built structure.
  auto cancel = std::make_shared<const CancelToken>();
  std::atomic<int> calls{0};
  ValuatorRegistry registry;
  MethodSchema schema;
  schema.name = "cancelly";
  schema.params = ResolveParams({"k"});
  schema.tasks = {KnnTask::kClassification};
  registry.Register(schema, [&](const ValuatorParams& params)
                                -> std::unique_ptr<Valuator> {
    // First factory call simulates the deadline expiring during the fit.
    if (calls.fetch_add(1) == 0) cancel->Cancel();
    auto rendezvous = std::make_shared<FitRendezvous>();
    rendezvous->overlapped = true;
    struct Holder : RendezvousValuator {
      std::shared_ptr<FitRendezvous> keep;
      Holder(ValuatorParams p, std::shared_ptr<FitRendezvous> r)
          : RendezvousValuator(std::move(p), r.get()), keep(std::move(r)) {}
    };
    return std::make_unique<Holder>(params, std::move(rendezvous));
  });

  EngineOptions options;
  options.registry = &registry;
  ValuationEngine engine(options);
  auto corpus = std::make_shared<const Dataset>(RandomClassDataset(20, 2, 3, 341));
  auto queries = std::make_shared<const Dataset>(RandomClassDataset(2, 2, 3, 342));
  ValuationRequest request;
  request.method = "cancelly";
  request.train = corpus;
  request.test = queries;
  request.cancel = cancel;

  ValuationReport cancelled = engine.Value(request);
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.FittedCount(), 0u);  // nothing installed
  EXPECT_EQ(engine.DeadlineExceededCount(), 1u);

  // The same key from an uncancelled client fits from scratch.
  request.cancel = nullptr;
  ValuationReport retry = engine.Value(request);
  EXPECT_TRUE(retry.ok()) << retry.status.ToString();
  EXPECT_FALSE(retry.fit_reused);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(engine.FittedCount(), 1u);
}

TEST(EngineConcurrencyTest, InjectedFitFaultIsAStructuredInternalError) {
  // The `fit` chaos site: with KNNSHAP_FAULTS=fit:after=0 semantics the
  // fit fails as a structured kInternal response (never an escaped
  // exception), and once the fault is cleared the same key recovers.
  std::vector<Workload> workloads = MixedWorkloads();
  ValuationEngine engine;
  ASSERT_TRUE(FaultRegistry::Global().Configure("fit:after=0"));
  ValuationReport faulted = engine.Value(
      ToRequest(workloads[0], /*parallel=*/false, /*use_cache=*/false));
  FaultRegistry::Global().Reset();
  EXPECT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status.code(), StatusCode::kInternal);
  EXPECT_NE(faulted.status.message().find("injected fit fault"),
            std::string::npos)
      << faulted.status.ToString();

  ValuationReport recovered = engine.Value(
      ToRequest(workloads[0], /*parallel=*/false, /*use_cache=*/false));
  EXPECT_TRUE(recovered.ok()) << recovered.status.ToString();
}

TEST(EngineConcurrencyTest, PrecomputedFingerprintsMatchEngineHashing) {
  std::vector<Workload> workloads = MixedWorkloads();
  ValuationEngine engine;
  // Prime the cache through the hashed path.
  ValuationReport first =
      engine.Value(ToRequest(workloads[0], /*parallel=*/false, /*use_cache=*/true));
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  // A request carrying the precomputed fingerprints must hit the same
  // cache entry — the serve layer's CorpusStore relies on this identity.
  ValuationRequest request =
      ToRequest(workloads[0], /*parallel=*/false, /*use_cache=*/true);
  request.train_fingerprint = DatasetFingerprint(*workloads[0].train);
  request.test_fingerprint = DatasetFingerprint(*workloads[0].test);
  ValuationReport second = engine.Value(request);
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.values, first.values);

  // InvalidateTrain by that fingerprint evicts both the fitted valuator
  // and the cache entry (the drop-leak satellite fix).
  ValuationEngine::InvalidationStats stats =
      engine.InvalidateTrain(request.train_fingerprint);
  EXPECT_EQ(stats.fitted_evicted, 1u);
  EXPECT_EQ(stats.cache_evicted, 1u);
  ValuationReport third = engine.Value(request);
  ASSERT_TRUE(third.ok()) << third.status.ToString();
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.values, first.values);
}

// Records the threads that value a request's queries. Each query waits
// (bounded) until a second one has arrived, so a request whose queries
// never overlap shows one thread after the wait, not by luck.
class ThreadRecordingValuator : public Valuator {
 public:
  struct Log {
    std::mutex mutex;
    std::condition_variable cv;
    std::set<std::thread::id> threads;
    size_t arrived = 0;
  };

  ThreadRecordingValuator(ValuatorParams params, Log* log)
      : Valuator(std::move(params)), log_(log) {}
  const char* Method() const override { return "threads"; }
  void ValueOne(const Dataset& /*test*/, size_t /*row*/,
                QueryValues* out) const override {
    {
      std::unique_lock<std::mutex> lock(log_->mutex);
      log_->threads.insert(std::this_thread::get_id());
      ++log_->arrived;
      log_->cv.notify_all();
      log_->cv.wait_for(lock, std::chrono::seconds(10),
                        [&] { return log_->arrived >= 2; });
    }
    out->values.assign(Train().Size(), 0.0);
  }

 private:
  Log* log_;
};

TEST(EngineConcurrencyTest, RequestOnAPoolWorkerSpreadsItsQueries) {
  // The serve pipeline runs each request as a job on a pool worker; the
  // engine's helping loop must still hand its queries to idle workers.
  ThreadRecordingValuator::Log log;
  ValuatorRegistry registry;
  MethodSchema schema;
  schema.name = "threads";
  schema.params = ResolveParams({"k"});
  schema.tasks = {KnnTask::kClassification};
  registry.Register(schema, [&](const ValuatorParams& params) {
    return std::make_unique<ThreadRecordingValuator>(params, &log);
  });
  EngineOptions options;
  options.registry = &registry;
  ValuationEngine engine(options);
  ValuationRequest request;
  request.method = "threads";
  request.train = std::make_shared<const Dataset>(RandomClassDataset(20, 2, 3, 601));
  request.test = std::make_shared<const Dataset>(RandomClassDataset(4, 2, 3, 602));
  request.use_cache = false;

  ThreadPool pool(4);
  std::promise<ValuationReport> done;
  pool.Submit([&] { done.set_value(engine.Value(request)); });
  const ValuationReport report = done.get_future().get();
  ASSERT_TRUE(report.ok()) << report.status.ToString();
  EXPECT_EQ(log.arrived, 4u);
  EXPECT_GT(log.threads.size(), 1u);
}

}  // namespace
}  // namespace knnshap
