// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Remote shard transport coverage (src/shard/socket_worker.h, src/util/
// net.h, the `digests`/`load_delta` sync ops): a router whose shards live
// behind TCP sockets must answer byte-for-byte identically to the
// unsharded pipeline — through mutations, through a primary replica dying
// mid-session (failover to the secondary is transparent), and with only
// the changed corpus blocks crossing the wire on re-sync. When every
// replica of a shard is dead the server answers a structured
// `unavailable` with retry_after_ms and recovers as soon as a worker
// comes back. Plus unit coverage for the wire helpers (endpoint parsing,
// fingerprint encoding, corpus-sync planning).
//
// The workers here are LoopbackWorker: a real RequestPipeline served over
// a real 127.0.0.1 socket by an in-test accept loop — the same per-
// connection FdInBuf/FdOutBuf plumbing knnshap_serve --shard-listen uses,
// without forking a binary (CI owns the out-of-process arm). A line hook
// turns one into a stub peer: it can answer a line itself or hang up
// after reading a request, the way a worker that dies mid-query does.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/dataset.h"
#include "knn/distance_kernel.h"
#include "serve/pipeline.h"
#include "shard/socket_worker.h"
#include "shard/wire.h"
#include "util/fault.h"
#include "util/fingerprint.h"
#include "util/json.h"
#include "util/net.h"
#include "util/random.h"

namespace knnshap {
namespace {

// ---------------------------------------------------------------------------
// LoopbackWorker: one remote shard worker on an ephemeral 127.0.0.1 port.

class LoopbackWorker {
 public:
  /// Sees each request line first: returns the reply to send instead, ""
  /// to let the pipeline answer, or kHangUp to drop the connection
  /// without replying.
  using LineHook = std::function<std::string(const std::string& line)>;
  static constexpr const char* kHangUp = "hang up";

  explicit LoopbackWorker(int port = 0) {
    PipelineOptions options;
    options.pipelined = false;  // what --shard-listen forces
    options.emit_timing = false;
    pipeline_ = std::make_unique<RequestPipeline>(options);
    std::string error;
    listen_fd_ = ListenTcp(Endpoint{"127.0.0.1", port}, 16, &error);
    EXPECT_GE(listen_fd_, 0) << error;
    port_ = BoundPort(listen_fd_);
    EXPECT_GT(port_, 0);
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  ~LoopbackWorker() { Stop(); }

  /// Installs `hook` for connections accepted from now on.
  void SetLineHook(LineHook hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    hook_ = std::move(hook);
  }

  int Port() const { return port_; }
  /// The worker's own pipeline, which its connections answer from.
  RequestPipeline& Pipeline() { return *pipeline_; }
  std::string Address() const { return "127.0.0.1:" + std::to_string(port_); }

  /// "Kill" the worker: stop accepting and force-close every live
  /// connection so the router sees a mid-query transport death, not a
  /// graceful goodbye. Idempotent.
  void Stop() {
    if (stopped_.exchange(true)) return;
    shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocking accept
    close(listen_fd_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (int fd : open_fds_) shutdown(fd, SHUT_RDWR);
    }
    acceptor_.join();
    // No new handlers can appear once the acceptor has exited.
    for (std::thread& handler : handlers_) handler.join();
  }

 private:
  void AcceptLoop() {
    while (true) {
      const int fd = AcceptTcp(listen_fd_);
      if (fd < 0) {
        if (errno == EINTR && !stopped_.load()) continue;
        return;
      }
      LineHook hook;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        open_fds_.push_back(fd);
        hook = hook_;
      }
      handlers_.emplace_back([this, fd, hook] {
        FdInBuf in_buf(fd);
        FdOutBuf out_buf(fd);
        std::istream in(&in_buf);
        std::ostream out(&out_buf);
        if (hook) {
          std::string line;
          while (std::getline(in, line)) {
            std::string reply = hook(line);
            if (reply == kHangUp) {
              shutdown(fd, SHUT_RDWR);
              break;
            }
            if (reply.empty()) reply = Answer(line);
            out << reply << '\n';
            out.flush();
          }
        } else {
          pipeline_->Run(in, out);
        }
        out.flush();
        {
          std::lock_guard<std::mutex> lock(mutex_);
          const auto it = std::find(open_fds_.begin(), open_fds_.end(), fd);
          if (it != open_fds_.end()) open_fds_.erase(it);
        }
        close(fd);
      });
    }
  }

  std::string Answer(const std::string& line) {
    return pipeline_->HandleSync(ParseJson(line).value).Dump();
  }

  std::unique_ptr<RequestPipeline> pipeline_;
  LineHook hook_;  // guarded by mutex_
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stopped_{false};
  std::thread acceptor_;
  std::mutex mutex_;
  std::vector<int> open_fds_;
  std::vector<std::thread> handlers_;  // acceptor-thread-only until Stop
};

// ---------------------------------------------------------------------------
// Shared request plumbing (mirrors shard_test.cpp).

std::string RowsJson(size_t n, size_t dim, int num_classes, uint64_t seed) {
  Rng rng(seed);
  std::string out = "[";
  for (size_t r = 0; r < n; ++r) {
    if (r > 0) out += ",";
    out += "[";
    for (size_t d = 0; d < dim; ++d) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f,", rng.NextGaussian());
      out += buf;
    }
    out += std::to_string(rng.NextIndex(static_cast<uint64_t>(num_classes)));
    out += "]";
  }
  out += "]";
  return out;
}

std::string Answer(RequestPipeline& pipeline, const std::string& line) {
  JsonParseResult parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << parsed.error << " in " << line;
  return pipeline.HandleSync(parsed.value).Dump();
}

std::unique_ptr<RequestPipeline> MakeBaseline() {
  PipelineOptions options;
  options.emit_timing = false;
  return std::make_unique<RequestPipeline>(options);
}

std::unique_ptr<RequestPipeline> MakeRemoteRouter(
    std::vector<std::vector<std::string>> groups) {
  PipelineOptions options;
  options.emit_timing = false;
  options.shards = static_cast<int>(groups.size());
  options.shard_remote = std::move(groups);
  // Short dial budget: dead replicas fail fast in the chaos tests.
  options.shard_transport.connect_timeout_ms = 1000;
  options.shard_transport.connect_attempts = 2;
  options.shard_transport.io_timeout_ms = 10000;
  return std::make_unique<RequestPipeline>(options);
}

uint64_t CounterValue(RequestPipeline& pipeline, const std::string& name) {
  return pipeline.Metrics()->GetCounter(name)->Value();
}

// The session both servers must answer identically — every ranked method
// (truncated, weighted and regression included) plus value traffic
// interleaved with mutations, so the remote workers re-sync mid-session.
std::vector<std::string> RemoteEquivalenceSession(uint64_t seed) {
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"train","rows":)" +
                  RowsJson(600, 4, 3, seed) + R"(,"target":"label"})");
  lines.push_back(R"({"op":"load","name":"q","rows":)" +
                  RowsJson(3, 4, 3, seed + 1) + R"(,"target":"label"})");
  const auto value = [](const std::string& fields) {
    return R"({"op":"value","train":"train","test":"q",)" + fields + "}";
  };
  lines.push_back(value(R"("method":"exact","k":3)"));
  lines.push_back(value(R"("method":"exact","k":3,"approx_error":0.2)"));
  lines.push_back(value(R"("method":"exact-corrected","k":3)"));
  lines.push_back(
      value(R"("method":"weighted-fast","k":2,"kernel":"inverse")"));
  lines.push_back(value(R"("method":"truncated","k":3,"epsilon":0.1)"));
  // The full-rank methods that read the query or the targets.
  lines.push_back(R"({"op":"load","name":"reg","rows":)" +
                  RowsJson(600, 4, 7, seed + 3) + R"(,"target":"target"})");
  lines.push_back(R"({"op":"load","name":"qr","rows":)" +
                  RowsJson(2, 4, 7, seed + 4) + R"(,"target":"target"})");
  lines.push_back(
      R"({"op":"value","train":"reg","test":"qr","method":"regression","k":3})");
  lines.push_back(value(R"("method":"weighted","k":2,)"
                        R"("task":"weighted-classification","kernel":"inverse")"));
  lines.push_back(
      R"({"op":"value","train":"reg","test":"qr","method":"weighted","k":2,)"
      R"("task":"weighted-regression","kernel":"inverse"})");
  // Mutate, then revalue: the routers' long-lived workers must delta-sync
  // and keep agreeing.
  lines.push_back(R"({"op":"append","name":"train","rows":)" +
                  RowsJson(5, 4, 3, seed + 2) + "}");
  lines.push_back(value(R"("method":"exact","k":3)"));
  lines.push_back(value(R"("method":"truncated","k":3,"epsilon":0.1)"));
  lines.push_back(R"({"op":"remove","name":"train","row":17})");
  lines.push_back(value(R"("method":"exact-corrected","k":3)"));
  return lines;
}

// ---------------------------------------------------------------------------
// Byte equivalence over real sockets.

TEST(RemoteShardTest, SocketShardedResponsesAreByteIdentical) {
  for (uint64_t seed : {131u, 257u}) {
    const std::vector<std::string> session = RemoteEquivalenceSession(seed);

    std::unique_ptr<RequestPipeline> baseline = MakeBaseline();
    std::vector<std::string> expected;
    for (const std::string& line : session) {
      expected.push_back(Answer(*baseline, line));
      EXPECT_NE(expected.back().find(R"("ok":true)"), std::string::npos)
          << expected.back();
    }

    LoopbackWorker worker0, worker1;
    std::unique_ptr<RequestPipeline> remote =
        MakeRemoteRouter({{worker0.Address()}, {worker1.Address()}});
    for (size_t i = 0; i < session.size(); ++i) {
      EXPECT_EQ(Answer(*remote, session[i]), expected[i])
          << "seed=" << seed << " request: " << session[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Failover chaos: primaries die mid-session, secondaries answer — and the
// transcript does not change by a byte.

TEST(RemoteShardTest, PrimaryDeathMidSessionFailsOverByteIdentically) {
  const std::vector<std::string> session = RemoteEquivalenceSession(977);
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();
  std::vector<std::string> expected;
  for (const std::string& line : session) {
    expected.push_back(Answer(*baseline, line));
  }

  LoopbackWorker primary0, primary1, secondary0, secondary1;
  std::unique_ptr<RequestPipeline> remote = MakeRemoteRouter(
      {{primary0.Address(), secondary0.Address()},
       {primary1.Address(), secondary1.Address()}});

  // The probe pins one fitted router whose worker connections stay
  // established across the kill (cache:false so every issue reaches the
  // shards; no mutation in between so the fit is reused, not rebuilt).
  const std::string probe =
      R"({"op":"value","train":"train","test":"q","method":"exact","k":3,"cache":false})";

  // First half through the primaries (probe expectation computed on a
  // baseline in the same pre-mutation state)...
  const size_t half = session.size() / 2;
  std::unique_ptr<RequestPipeline> half_baseline = MakeBaseline();
  for (size_t i = 0; i < half; ++i) {
    Answer(*half_baseline, session[i]);
    ASSERT_EQ(Answer(*remote, session[i]), expected[i])
        << "request: " << session[i];
  }
  const std::string expected_probe = Answer(*half_baseline, probe);
  ASSERT_EQ(Answer(*remote, probe), expected_probe);

  // ...then both primaries die under the established connections. The
  // next fan-out's exchange hits a dead socket mid-query, latches the
  // replica, and retries the same query on the secondary — which gets a
  // fresh corpus sync and must produce the identical bytes.
  primary0.Stop();
  primary1.Stop();
  EXPECT_EQ(Answer(*remote, probe), expected_probe);
  EXPECT_GE(CounterValue(*remote, "knnshap_shard_failovers_total"), 2u);

  // The rest of the session (mutations included — new fits dial the
  // secondaries directly) also stays byte-identical.
  for (size_t i = half; i < session.size(); ++i) {
    EXPECT_EQ(Answer(*remote, session[i]), expected[i])
        << "request: " << session[i];
  }
}

TEST(RemoteShardTest, AllReplicasDeadAnswersUnavailableThenRecovers) {
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();
  auto worker0 = std::make_unique<LoopbackWorker>();
  auto worker1 = std::make_unique<LoopbackWorker>();
  const int port0 = worker0->Port(), port1 = worker1->Port();
  std::unique_ptr<RequestPipeline> remote =
      MakeRemoteRouter({{worker0->Address()}, {worker1->Address()}});

  const std::string load = R"({"op":"load","name":"c","rows":)" +
                           RowsJson(600, 3, 2, 313) + R"(,"target":"label"})";
  const std::string load_q = R"({"op":"load","name":"q","rows":)" +
                             RowsJson(2, 3, 2, 314) + R"(,"target":"label"})";
  // cache:false — every request must reach the shards, not the result
  // cache.
  const std::string value =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3,"cache":false})";
  const std::string expected_value =
      (Answer(*baseline, load), Answer(*baseline, load_q),
       Answer(*baseline, value));

  Answer(*remote, load);
  Answer(*remote, load_q);
  ASSERT_EQ(Answer(*remote, value), expected_value);

  // Kill the only replica of each shard: the fan-out fails, the fit is
  // evicted, and the server answers a structured unavailable with a
  // retry hint instead of a partial (or wrong) result.
  worker0->Stop();
  worker1->Stop();
  JsonValue down = remote->HandleSync(ParseJson(value).value);
  EXPECT_FALSE(down.Get("ok").AsBool(true)) << down.Dump();
  EXPECT_EQ(down.Get("code").AsString(), "unavailable");
  EXPECT_TRUE(down.Has("retry_after_ms")) << down.Dump();
  // The error names the dead connection's own failure.
  EXPECT_NE(down.Get("error").AsString().find(
                "last error: shard worker 127.0.0.1:" + std::to_string(port0)),
            std::string::npos)
      << down.Dump();
  // One replica per shard: there was no next replica to switch to.
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_failovers_total"), 0u);

  // Workers come back on the same ports (blank corpus state): the next
  // request re-fits, re-dials, full-loads, and the answer is again
  // byte-identical.
  worker0 = std::make_unique<LoopbackWorker>(port0);
  worker1 = std::make_unique<LoopbackWorker>(port1);
  EXPECT_EQ(Answer(*remote, value), expected_value);
}

// ---------------------------------------------------------------------------
// Fault sites (util/fault.h): each remote-transport site drives its
// documented outcome, and disarming it recovers byte-identically.

struct FaultSiteCase {
  const char* spec;
  /// Answer one request through the primaries before arming the site, so
  /// the fault meets established connections.
  bool warm;
  /// Stop both primaries after the warm request: a real mid-query death.
  bool kill_primaries;
  uint64_t connect_failures;
  uint64_t failovers;
  /// The failure the unavailable error names.
  const char* cause;
};

// Disarms every fault site when the test body exits, failed or not.
struct FaultReset {
  ~FaultReset() { FaultRegistry::Global().Reset(); }
};

TEST(RemoteShardTest, FaultSitesAnswerUnavailableThenRecover) {
  const std::string load = R"({"op":"load","name":"c","rows":)" +
                           RowsJson(600, 3, 2, 331) + R"(,"target":"label"})";
  const std::string load_q = R"({"op":"load","name":"q","rows":)" +
                             RowsJson(2, 3, 2, 332) + R"(,"target":"label"})";
  const std::string value =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3,"cache":false})";
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();
  const std::string expected =
      (Answer(*baseline, load), Answer(*baseline, load_q),
       Answer(*baseline, value));

  // Two shards, two replicas each, two dial attempts per replica.
  const FaultSiteCase cases[] = {
      // Every dial attempt fails: both groups are exhausted at fit.
      {"shard_connect:after=0", false, false, 8, 0,
       "injected shard_connect fault"},
      // Every read fails: each primary dies mid-query, and the sync of
      // the secondary it fails over to dies too.
      {"shard_read:after=0", true, false, 0, 2, "injected shard_read fault"},
      // The primaries really die, and each failover is abandoned: the
      // error names the primary's own death.
      {"shard_failover:after=0", true, true, 0, 2,
       "last error: shard worker 127.0.0.1:"},
  };
  for (const FaultSiteCase& c : cases) {
    SCOPED_TRACE(c.spec);
    FaultReset reset;
    LoopbackWorker primary0, primary1, secondary0, secondary1;
    std::unique_ptr<RequestPipeline> remote = MakeRemoteRouter(
        {{primary0.Address(), secondary0.Address()},
         {primary1.Address(), secondary1.Address()}});
    Answer(*remote, load);
    Answer(*remote, load_q);
    if (c.warm) {
      ASSERT_EQ(Answer(*remote, value), expected);
    }
    if (c.kill_primaries) {
      primary0.Stop();
      primary1.Stop();
    }

    ASSERT_TRUE(FaultRegistry::Global().Configure(c.spec));
    const JsonValue down = remote->HandleSync(ParseJson(value).value);
    EXPECT_FALSE(down.Get("ok").AsBool(true)) << down.Dump();
    EXPECT_EQ(down.Get("code").AsString(), "unavailable") << down.Dump();
    EXPECT_TRUE(down.Has("retry_after_ms")) << down.Dump();
    EXPECT_NE(down.Get("error").AsString().find(c.cause), std::string::npos)
        << down.Dump();
    EXPECT_EQ(CounterValue(*remote, "knnshap_shard_connect_failures_total"),
              c.connect_failures);
    EXPECT_EQ(CounterValue(*remote, "knnshap_shard_failovers_total"),
              c.failovers);

    // Disarmed, the next request re-fits and answers the unsharded bytes.
    FaultRegistry::Global().Reset();
    EXPECT_EQ(Answer(*remote, value), expected);
  }
}

// ---------------------------------------------------------------------------
// Send-all-then-gather: a primary dies after its request was sent, while
// the other shards' replies wait unread.

TEST(RemoteShardTest, PrimaryDeathDuringGatherLeavesNoStaleReply) {
  std::atomic<bool> die_on_candidates{false};
  LoopbackWorker primary0, secondary0, worker1, worker2;
  primary0.SetLineHook([&](const std::string& line) -> std::string {
    if (line.find(R"("op":"candidates")") != std::string::npos &&
        die_on_candidates.exchange(false)) {
      return LoopbackWorker::kHangUp;
    }
    return "";
  });
  std::unique_ptr<RequestPipeline> remote = MakeRemoteRouter(
      {{primary0.Address(), secondary0.Address()},
       {worker1.Address()},
       {worker2.Address()}});
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();

  // 900 rows: four fingerprint blocks, three shards. Shard 0 is read
  // first, so shards 1 and 2 hold pending replies when it fails.
  for (const std::string& line :
       {R"({"op":"load","name":"c","rows":)" + RowsJson(900, 4, 3, 601) +
            R"(,"target":"label"})",
        R"({"op":"load","name":"q1","rows":)" + RowsJson(3, 4, 3, 602) +
            R"(,"target":"label"})",
        R"({"op":"load","name":"q2","rows":)" + RowsJson(3, 4, 3, 603) +
            R"(,"target":"label"})"}) {
    ASSERT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  const auto value = [](const char* test) {
    return R"({"op":"value","train":"c","test":")" + std::string(test) +
           R"(","method":"exact","k":3,"cache":false})";
  };
  const std::string expected_q1 = Answer(*baseline, value("q1"));
  const std::string expected_q2 = Answer(*baseline, value("q2"));
  // A reply left over from q1's fan-out would change q2's bytes.
  ASSERT_NE(expected_q1, expected_q2);

  ASSERT_EQ(Answer(*remote, value("q1")), expected_q1);
  const uint64_t connects =
      CounterValue(*remote, "knnshap_shard_connects_total");
  EXPECT_EQ(connects, 3u);

  die_on_candidates = true;
  EXPECT_EQ(Answer(*remote, value("q1")), expected_q1);
  EXPECT_FALSE(die_on_candidates.load());
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_failovers_total"), 1u);

  // The same fitted valuator (one new connection: the secondary's) now
  // answers a different batch, then the first again.
  EXPECT_EQ(Answer(*remote, value("q2")), expected_q2);
  EXPECT_EQ(Answer(*remote, value("q1")), expected_q1);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_connects_total"),
            connects + 1);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_failovers_total"), 1u);
}

// A shard that answers deadline_exceeded fails the fan-out without
// failing the worker, so the fitted valuator and its connections live on:
// the other shards' replies must have been read all the same.
TEST(RemoteShardTest, DeadlineDuringGatherLeavesNoStaleReply) {
  std::atomic<bool> stall{false};
  LoopbackWorker worker0, worker1, worker2;
  worker0.SetLineHook([&](const std::string& line) -> std::string {
    if (line.find(R"("op":"candidates")") != std::string::npos &&
        stall.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      return R"({"ok":false,"error":"late","code":"deadline_exceeded"})";
    }
    return "";
  });
  std::unique_ptr<RequestPipeline> remote = MakeRemoteRouter(
      {{worker0.Address()}, {worker1.Address()}, {worker2.Address()}});
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();
  for (const std::string& line :
       {R"({"op":"load","name":"c","rows":)" + RowsJson(900, 4, 3, 611) +
            R"(,"target":"label"})",
        R"({"op":"load","name":"q1","rows":)" + RowsJson(1, 4, 3, 612) +
            R"(,"target":"label"})",
        R"({"op":"load","name":"q2","rows":)" + RowsJson(1, 4, 3, 613) +
            R"(,"target":"label"})"}) {
    ASSERT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  const auto value = [](const char* test, const char* extra) {
    return R"({"op":"value","train":"c","test":")" + std::string(test) +
           R"(","method":"exact","k":3,"cache":false)" + extra + "}";
  };
  const std::string expected_q2 = Answer(*baseline, value("q2", ""));
  ASSERT_EQ(Answer(*remote, value("q1", "")),
            Answer(*baseline, value("q1", "")));

  stall = true;
  const JsonValue late = remote->HandleSync(
      ParseJson(value("q1", R"(,"deadline_ms":200)")).value);
  EXPECT_EQ(late.Get("code").AsString(), "deadline_exceeded") << late.Dump();
  EXPECT_FALSE(stall.load());

  EXPECT_EQ(Answer(*remote, value("q2", "")), expected_q2);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_connects_total"), 3u);
}

// ---------------------------------------------------------------------------
// Protocol version: checked at connect, before any packed payload.

TEST(RemoteShardTest, WorkerOnAnotherProtocolIsAFailedPrecondition) {
  // A stub peer that answers every line as a protocol 1 worker would
  // answer the `protocol` op.
  LoopbackWorker stub;
  stub.SetLineHook([](const std::string&) -> std::string {
    return R"({"ok":true,"protocol":1,"ops":["candidates","digests","load"]})";
  });
  Dataset corpus;
  for (int i = 0; i < 300; ++i) {
    corpus.features.AppendRow(std::vector<float>{1.0f * i, 2.0f, 3.0f});
    corpus.labels.push_back(i % 2);
  }
  const CorpusDigests digests = ComputeCorpusDigests(corpus);
  ShardConnection worker(ShardRange{0, corpus.Size(), 0}, "c", Metric::kL2,
                         SocketWorkerOptions{}, ShardTransportCounters{});
  Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(ParseEndpoint(stub.Address(), &endpoint, &error)) << error;
  ASSERT_TRUE(worker.Dial(endpoint).ok());
  const Status status = worker.Sync(corpus, digests);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("speaks protocol 1"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("speaks protocol " +
                                  std::to_string(wire::kProtocolVersion)),
            std::string::npos)
      << status.message();
  EXPECT_EQ(worker.Health().code(), StatusCode::kFailedPrecondition);

  // Through a router the value request answers a structured error that
  // names the mismatch, not a malformed candidate run.
  std::unique_ptr<RequestPipeline> remote =
      MakeRemoteRouter({{stub.Address()}, {stub.Address()}});
  Answer(*remote, R"({"op":"load","name":"c","rows":)" +
                      RowsJson(600, 3, 2, 72) + R"(,"target":"label"})");
  Answer(*remote, R"({"op":"load","name":"q","rows":)" +
                      RowsJson(2, 3, 2, 73) + R"(,"target":"label"})");
  const JsonValue down = remote->HandleSync(
      ParseJson(R"({"op":"value","train":"c","test":"q","method":"exact","k":3})")
          .value);
  EXPECT_FALSE(down.Get("ok").AsBool(true));
  EXPECT_EQ(down.Get("code").AsString(), "unavailable") << down.Dump();
  EXPECT_NE(down.Get("error").AsString().find("speaks protocol 1"),
            std::string::npos)
      << down.Dump();
}

// ---------------------------------------------------------------------------
// Delta sync: a mutation ships only the changed blocks, never the corpus.

TEST(RemoteShardTest, ResyncShipsOnlyChangedBlocks) {
  LoopbackWorker worker0, worker1;
  std::unique_ptr<RequestPipeline> remote =
      MakeRemoteRouter({{worker0.Address()}, {worker1.Address()}});
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();

  const std::string load = R"({"op":"load","name":"c","rows":)" +
                           RowsJson(600, 3, 2, 517) + R"(,"target":"label"})";
  const std::string load_q = R"({"op":"load","name":"q","rows":)" +
                             RowsJson(2, 3, 2, 518) + R"(,"target":"label"})";
  const std::string value =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3})";
  for (const std::string& line : {load, load_q, value}) {
    EXPECT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  // First fit: each worker had no rows — every block of its window.
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_full_loads_total"), 2u);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_delta_loads_total"), 0u);

  // Append 5 rows: 600 rows -> 605 keeps 3 fingerprint blocks, and only
  // the tail block's content changes.
  const std::string append = R"({"op":"append","name":"c","rows":)" +
                             RowsJson(5, 3, 2, 519) + "}";
  for (const std::string& line : {append, value}) {
    EXPECT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  // The re-fit re-synced only the worker whose window holds the tail
  // block, via load_delta — one changed block — with no further full
  // load. The other window [0, 256) is unchanged, so its worker was sent
  // nothing.
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_full_loads_total"), 2u);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_delta_loads_total"), 1u);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_delta_blocks_total"), 1u);
}

// A worker that cannot splice kept blocks is sent every block of its
// window instead, and the topology keeps answering the unsharded bytes.
TEST(RemoteShardTest, RejectedDeltaShipsTheWholeWindow) {
  FaultReset reset;
  LoopbackWorker worker0, worker1;
  std::unique_ptr<RequestPipeline> remote =
      MakeRemoteRouter({{worker0.Address()}, {worker1.Address()}});
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();
  const std::string load = R"({"op":"load","name":"c","rows":)" +
                           RowsJson(600, 3, 2, 731) + R"(,"target":"label"})";
  const std::string load_q = R"({"op":"load","name":"q","rows":)" +
                             RowsJson(2, 3, 2, 732) + R"(,"target":"label"})";
  const std::string value =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3})";
  for (const std::string& line : {load, load_q, value}) {
    EXPECT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  ASSERT_TRUE(FaultRegistry::Global().Configure("delta_apply:after=0"));
  const std::string append = R"({"op":"append","name":"c","rows":)" +
                             RowsJson(5, 3, 2, 733) + "}";
  for (const std::string& line : {append, value}) {
    EXPECT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  // The tail window [256, 605) was re-sent whole; no delta landed.
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_full_loads_total"), 3u);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_delta_loads_total"), 0u);
}

// A worker holds only its shard's window. When an append moves the plan's
// boundaries, each long-lived worker keeps the overlap of its old and new
// windows and is sent only the blocks that entered or changed.
TEST(RemoteShardTest, MovedWindowsShipOnlyTheEnteringBlocks) {
  LoopbackWorker worker0, worker1, worker2;
  std::unique_ptr<RequestPipeline> remote = MakeRemoteRouter(
      {{worker0.Address()}, {worker1.Address()}, {worker2.Address()}});
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();

  // 1536 rows = 6 blocks: windows [0, 512), [512, 1024), [1024, 1536).
  const std::string load = R"({"op":"load","name":"c","rows":)" +
                           RowsJson(1536, 3, 2, 701) + R"(,"target":"label"})";
  const std::string load_q = R"({"op":"load","name":"q","rows":)" +
                             RowsJson(2, 3, 2, 702) + R"(,"target":"label"})";
  const std::string exact =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3})";
  const std::string truncated =
      R"({"op":"value","train":"c","test":"q","method":"truncated","k":3,"epsilon":0.1})";
  for (const std::string& line : {load, load_q, exact, truncated}) {
    EXPECT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_full_loads_total"), 3u);

  // 512 more rows = 8 blocks: windows [0, 512), [512, 1280), [1280, 2048).
  // Shard 0 is unchanged; shard 1 keeps blocks 2-3 and receives block 4;
  // shard 2 keeps block 5 and receives the new blocks 6 and 7.
  const std::string append = R"({"op":"append","name":"c","rows":)" +
                             RowsJson(512, 3, 2, 703) + "}";
  for (const std::string& line : {append, exact, truncated}) {
    EXPECT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_full_loads_total"), 3u);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_delta_loads_total"), 2u);
  EXPECT_EQ(CounterValue(*remote, "knnshap_shard_delta_blocks_total"), 3u);

  // Each worker holds exactly its window.
  const std::pair<size_t, size_t> windows[] = {{0, 512}, {512, 1280},
                                               {1280, 2048}};
  LoopbackWorker* workers[] = {&worker0, &worker1, &worker2};
  for (size_t s = 0; s < 3; ++s) {
    const auto held = workers[s]->Pipeline().Store().Get("c");
    ASSERT_TRUE(held.has_value()) << s;
    EXPECT_TRUE(held->window) << s;
    EXPECT_EQ(held->row_begin, windows[s].first) << s;
    EXPECT_EQ(held->row_begin + held->data->Size(), windows[s].second) << s;
  }
}

// No client op answers on a window as though it were the whole corpus.
TEST(RemoteShardTest, ClientOpsRefuseAWindow) {
  LoopbackWorker worker0, worker1;
  std::unique_ptr<RequestPipeline> remote =
      MakeRemoteRouter({{worker0.Address()}, {worker1.Address()}});
  Answer(*remote, R"({"op":"load","name":"c","rows":)" +
                      RowsJson(600, 3, 2, 711) + R"(,"target":"label"})");
  Answer(*remote, R"({"op":"load","name":"q","rows":)" +
                      RowsJson(2, 3, 2, 712) + R"(,"target":"label"})");
  ASSERT_TRUE(remote
                  ->HandleSync(ParseJson(R"({"op":"value","train":"c",)"
                                         R"("test":"q","method":"exact","k":3})")
                                   .value)
                  .Get("ok")
                  .AsBool(false));

  // Worker 1 holds rows [256, 600) of "c".
  RequestPipeline& worker = worker1.Pipeline();
  Answer(worker, R"({"op":"load","name":"q","rows":)" +
                     RowsJson(2, 3, 2, 712) + R"(,"target":"label"})");
  for (const std::string& line :
       {std::string(R"({"op":"value","train":"c","test":"q","method":"exact","k":3})"),
        std::string(R"({"op":"value","train":"q","test":"c","method":"exact","k":3})"),
        R"({"op":"append","name":"c","rows":)" + RowsJson(1, 3, 2, 713) + "}",
        std::string(R"({"op":"remove","name":"c","row":0})")}) {
    const JsonValue reply = worker.HandleSync(ParseJson(line).value);
    EXPECT_EQ(reply.Get("code").AsString(), "failed_precondition")
        << line.substr(0, 60) << ": " << reply.Dump();
    EXPECT_NE(reply.Get("error").AsString().find("shard window"),
              std::string::npos)
        << reply.Dump();
  }
  // `stats` lists the window with its bounds.
  const JsonValue stats =
      worker.HandleSync(ParseJson(R"({"op":"stats"})").value);
  bool listed = false;
  for (const JsonValue& dataset : stats.Get("datasets").Items()) {
    if (dataset.Get("name").AsString() != "c") continue;
    listed = true;
    EXPECT_EQ(dataset.Get("rows").AsNumber(), 344.0);
    EXPECT_EQ(dataset.Get("row_begin").AsNumber(), 256.0);
  }
  EXPECT_TRUE(listed) << stats.Dump();
}

// The byte counters see every line of a connection. Each row of the
// corpus crosses the wire once in a 2-shard first fit: the windows
// partition the corpus, so what is sent is one whole-corpus load line
// plus framing, where every worker used to receive the whole corpus.
TEST(RemoteShardTest, FirstFitSendsEachRowOnce) {
  LoopbackWorker worker0, worker1;
  std::unique_ptr<RequestPipeline> remote =
      MakeRemoteRouter({{worker0.Address()}, {worker1.Address()}});
  std::unique_ptr<RequestPipeline> baseline = MakeBaseline();
  const std::string load = R"({"op":"load","name":"c","rows":)" +
                           RowsJson(2000, 8, 2, 721) + R"(,"target":"label"})";
  const std::string load_q = R"({"op":"load","name":"q","rows":)" +
                             RowsJson(1, 8, 2, 722) + R"(,"target":"label"})";
  const std::string value =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3})";
  for (const std::string& line : {load, load_q, value}) {
    EXPECT_EQ(Answer(*remote, line), Answer(*baseline, line));
  }
  const CorpusSnapshot corpus = *remote->Store().Get("c");
  const uint64_t whole_line =
      wire::BuildInlineLoadRequest("c", *corpus.data).Dump().size() + 1;
  const uint64_t sent = CounterValue(*remote, "knnshap_shard_bytes_sent_total");
  const uint64_t received =
      CounterValue(*remote, "knnshap_shard_bytes_received_total");
  EXPECT_GT(sent, whole_line);
  EXPECT_LT(sent, whole_line + whole_line / 20)
      << "sent " << sent << " bytes; one whole-corpus line is " << whole_line;
  // Both full-rank candidates replies carry their shard's distance
  // column: 2000 f64s, base64.
  EXPECT_GT(received, 2000u * 8 * 4 / 3);
  // Both counters reach the metrics scrape.
  const std::string scrape =
      remote->HandleSync(ParseJson(R"({"op":"metrics"})").value)
          .Get("text")
          .AsString();
  EXPECT_NE(scrape.find("knnshap_shard_bytes_sent_total " +
                        std::to_string(sent)),
            std::string::npos);
  EXPECT_NE(scrape.find("knnshap_shard_bytes_received_total " +
                        std::to_string(received)),
            std::string::npos);
}

// An auto-selected kernel reroutes some passes (ResolveDistanceKernel)
// where a pinned one of the same name does not, so a worker whose
// kernel_auto differs from the router's is refused at connect.
TEST(RemoteShardTest, WorkerOnAnotherKernelChoiceIsAFailedPrecondition) {
  LoopbackWorker stub;
  const std::string other_choice = KernelChoiceIsAuto() ? "false" : "true";
  stub.SetLineHook([&](const std::string&) -> std::string {
    return R"({"ok":true,"protocol":)" +
           std::to_string(wire::kProtocolVersion) + R"(,"kernel":")" +
           KernelName(ActiveKernel()) + R"(","kernel_auto":)" + other_choice +
           "}";
  });
  Dataset corpus;
  for (int i = 0; i < 300; ++i) {
    corpus.features.AppendRow(std::vector<float>{1.0f * i, 2.0f, 3.0f});
    corpus.labels.push_back(i % 2);
  }
  const CorpusDigests digests = ComputeCorpusDigests(corpus);
  ShardConnection worker(ShardRange{0, corpus.Size(), 0}, "c", Metric::kL2,
                         SocketWorkerOptions{}, ShardTransportCounters{});
  Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(ParseEndpoint(stub.Address(), &endpoint, &error)) << error;
  ASSERT_TRUE(worker.Dial(endpoint).ok());
  const Status status = worker.Sync(corpus, digests);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.message();
  EXPECT_NE(status.message().find(KernelChoiceIsAuto() ? "pinned"
                                                       : "auto-selected"),
            std::string::npos)
      << status.message();
  EXPECT_EQ(worker.Health().code(), StatusCode::kFailedPrecondition);
}

// A spawned worker pins its kernel exactly when the router's is pinned.
TEST(RemoteShardTest, SpawnedWorkersPinOnlyAPinnedKernel) {
  const auto pins = [] {
    for (const std::string& arg : ShardWorkerCommand("knnshap_serve")) {
      if (arg.rfind("--kernel=", 0) == 0) return arg;
    }
    return std::string();
  };
  SetKernelOverride(KernelKind::kReference);
  EXPECT_EQ(pins(), "--kernel=reference");
  SetKernelOverride(KernelKind::kAuto);
  EXPECT_EQ(pins().empty(), KernelChoiceIsAuto());
}

// ---------------------------------------------------------------------------
// Wire helpers.

TEST(WireTest, FingerprintHexRoundTrips) {
  for (uint64_t fp : {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
    uint64_t parsed = 0;
    ASSERT_TRUE(wire::ParseHexFingerprint(wire::FingerprintHex(fp), &parsed));
    EXPECT_EQ(parsed, fp);
  }
  uint64_t ignored;
  EXPECT_FALSE(wire::ParseHexFingerprint("", &ignored));
  EXPECT_FALSE(wire::ParseHexFingerprint("12345", &ignored));
  EXPECT_FALSE(wire::ParseHexFingerprint("0xnothex", &ignored));
}

TEST(WireTest, PlanCorpusSyncPicksTheCheapestSufficientMode) {
  std::unique_ptr<RequestPipeline> holder = MakeBaseline();
  Answer(*holder, R"({"op":"load","name":"c","rows":)" +
                      RowsJson(600, 3, 2, 611) + R"(,"target":"label"})");
  const JsonValue held =
      holder->HandleSync(ParseJson(R"({"op":"digests","name":"c"})").value);
  ASSERT_TRUE(held.Get("ok").AsBool(false)) << held.Dump();

  const CorpusSnapshot snapshot = *holder->Store().Get("c");
  const ShardRange whole{0, snapshot.data->Size(), 0};
  // Identical corpus: nothing to send.
  wire::CorpusSyncPlan plan =
      wire::PlanCorpusSync(*snapshot.data, *snapshot.digests, whole, held);
  EXPECT_EQ(plan.mode, wire::CorpusSyncPlan::Mode::kNone);

  // One appended row: exactly the tail block is stale.
  std::unique_ptr<RequestPipeline> mutated = MakeBaseline();
  Answer(*mutated, R"({"op":"load","name":"c","rows":)" +
                       RowsJson(600, 3, 2, 611) + R"(,"target":"label"})");
  Answer(*mutated, R"({"op":"append","name":"c","rows":)" +
                       RowsJson(1, 3, 2, 612) + "}");
  const CorpusSnapshot changed = *mutated->Store().Get("c");
  plan = wire::PlanCorpusSync(*changed.data, *changed.digests,
                              {0, changed.data->Size(), 0}, held);
  ASSERT_EQ(plan.mode, wire::CorpusSyncPlan::Mode::kDelta);
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0], changed.digests->NumBlocks() - 1);

  // A worker that never heard of the corpus answers not_found: full load.
  const JsonValue missing = holder->HandleSync(
      ParseJson(R"({"op":"digests","name":"nope"})").value);
  plan = wire::PlanCorpusSync(*snapshot.data, *snapshot.digests, whole, missing);
  EXPECT_EQ(plan.mode, wire::CorpusSyncPlan::Mode::kFull);

  // Incompatible geometry (different dim under the same name): full load.
  std::unique_ptr<RequestPipeline> other = MakeBaseline();
  Answer(*other, R"({"op":"load","name":"c","rows":)" +
                     RowsJson(600, 5, 2, 613) + R"(,"target":"label"})");
  const JsonValue other_digests =
      other->HandleSync(ParseJson(R"({"op":"digests","name":"c"})").value);
  plan = wire::PlanCorpusSync(*snapshot.data, *snapshot.digests, whole,
                              other_digests);
  EXPECT_EQ(plan.mode, wire::CorpusSyncPlan::Mode::kFull);
}

TEST(NetTest, ParseEndpointForms) {
  Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(ParseEndpoint("host.example:7001", &endpoint, &error));
  EXPECT_EQ(endpoint.host, "host.example");
  EXPECT_EQ(endpoint.port, 7001);

  // Bare port picks up the caller's default host.
  ASSERT_TRUE(ParseEndpoint("7002", &endpoint, &error, "127.0.0.1"));
  EXPECT_EQ(endpoint.host, "127.0.0.1");
  EXPECT_EQ(endpoint.port, 7002);

  // Without a caller default the host-less forms mean loopback, never
  // all interfaces; an explicit host wins.
  ASSERT_TRUE(ParseEndpoint("7003", &endpoint, &error));
  EXPECT_EQ(endpoint.host, "127.0.0.1");
  ASSERT_TRUE(ParseEndpoint(":7004", &endpoint, &error));
  EXPECT_EQ(endpoint.host, "127.0.0.1");
  EXPECT_EQ(endpoint.port, 7004);
  ASSERT_TRUE(ParseEndpoint("0.0.0.0:7005", &endpoint, &error));
  EXPECT_EQ(endpoint.host, "0.0.0.0");

  EXPECT_FALSE(ParseEndpoint("", &endpoint, &error));
  EXPECT_FALSE(ParseEndpoint("host:", &endpoint, &error));
  EXPECT_FALSE(ParseEndpoint("host:notaport", &endpoint, &error));
  EXPECT_FALSE(ParseEndpoint("host:70000", &endpoint, &error));
  // Port 0 is listen-only (ephemeral bind) and off by default.
  EXPECT_FALSE(ParseEndpoint("host:0", &endpoint, &error));
  EXPECT_TRUE(ParseEndpoint("host:0", &endpoint, &error, "0.0.0.0",
                            /*allow_port_zero=*/true));
}

}  // namespace
}  // namespace knnshap
