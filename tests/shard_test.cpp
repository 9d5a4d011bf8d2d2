// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Shard subsystem coverage (src/shard/): the planner must produce
// balanced, block-aligned, content-addressed partitions; a mutation must
// invalidate exactly the shards whose blocks were touched; the candidates
// kernel must reproduce the global selection restricted to each planned
// range; and — the headline contract — sharded serving through spawned
// worker processes must answer byte-for-byte identically to the unsharded
// pipeline for every supported method, on tie-heavy corpora included.
// Failure paths: a worker command that cannot spawn (or none at all)
// yields a structured internal error, and the `candidates` data plane
// rejects stale fingerprints and misaligned ranges.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dataset/dataset.h"
#include "knn/distance_kernel.h"
#include "knn/selection.h"
#include "serve/pipeline.h"
#include "shard/shard_planner.h"
#include "shard/shard_worker.h"
#include "shard/socket_worker.h"
#include "shard/wire.h"
#include "serve_process.h"
#include "test_util.h"
#include "util/fingerprint.h"
#include "util/json.h"
#include "util/random.h"

namespace knnshap {
namespace {

using testing_util::RandomClassDataset;
using testing_util::SingleQuery;

// ---------------------------------------------------------------------------
// Planner properties.

// Shards' block counts under a plan; row_begin is always aligned, so the
// count is a simple ceiling division.
size_t BlocksOf(const ShardRange& shard, size_t block_rows) {
  return (shard.Rows() + block_rows - 1) / block_rows;
}

TEST(ShardPlannerTest, PartitionsAlignedAndBalanced) {
  const size_t kBlockRows = 4;
  Dataset data = RandomClassDataset(37, 3, 4, 1);  // 10 blocks, ragged tail
  CorpusDigests digests = ComputeCorpusDigests(data, kBlockRows);
  ASSERT_EQ(digests.NumBlocks(), 10u);

  for (size_t shard_count : {1u, 2u, 3u, 7u, 10u, 25u}) {
    std::vector<ShardRange> plan = PlanShards(digests, shard_count);
    // Clamped to the block count, never an empty shard.
    EXPECT_EQ(plan.size(), std::min<size_t>(shard_count, 10u));

    // The ranges partition [0, rows) contiguously, block-aligned.
    size_t cursor = 0;
    size_t min_blocks = digests.NumBlocks(), max_blocks = 0;
    for (const ShardRange& shard : plan) {
      EXPECT_EQ(shard.row_begin, cursor);
      EXPECT_LT(shard.row_begin, shard.row_end);
      EXPECT_EQ(shard.row_begin % kBlockRows, 0u);
      if (shard.row_end != data.Size()) {
        EXPECT_EQ(shard.row_end % kBlockRows, 0u);
      }
      const size_t blocks = BlocksOf(shard, kBlockRows);
      min_blocks = std::min(min_blocks, blocks);
      max_blocks = std::max(max_blocks, blocks);
      cursor = shard.row_end;
    }
    EXPECT_EQ(cursor, data.Size());
    // Balanced at block granularity: floor or ceil of blocks/shards.
    EXPECT_LE(max_blocks - min_blocks, 1u);

    // Plans are deterministic, fingerprints included.
    EXPECT_EQ(plan, PlanShards(digests, shard_count));
  }

  // Degenerate count plans as one shard.
  EXPECT_EQ(PlanShards(digests, 0).size(), 1u);
}

TEST(ShardPlannerTest, MutationInvalidatesOnlyTouchedShard) {
  const size_t kBlockRows = 4;
  Dataset data = RandomClassDataset(12, 2, 3, 5);  // exactly 3 blocks
  CorpusDigests before = ComputeCorpusDigests(data, kBlockRows);
  std::vector<ShardRange> plan_before = PlanShards(before, 3);
  ASSERT_EQ(plan_before.size(), 3u);

  // Mutate one feature in row 5 — block 1, the middle shard.
  data.features.At(5, 1) += 1.0f;
  CorpusDigests after = ComputeCorpusDigests(data, kBlockRows);
  std::vector<ShardRange> plan_after = PlanShards(after, 3);
  ASSERT_EQ(plan_after.size(), 3u);

  EXPECT_EQ(plan_before[0].fingerprint, plan_after[0].fingerprint);
  EXPECT_NE(plan_before[1].fingerprint, plan_after[1].fingerprint);
  EXPECT_EQ(plan_before[2].fingerprint, plan_after[2].fingerprint);
  // Ranges themselves are shape-determined and unchanged.
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(plan_before[s].row_begin, plan_after[s].row_begin);
    EXPECT_EQ(plan_before[s].row_end, plan_after[s].row_end);
  }
}

TEST(ShardPlannerTest, FingerprintsAreRangeAndShapeAddressed) {
  const size_t kBlockRows = 4;
  Dataset data = RandomClassDataset(16, 2, 3, 9);
  CorpusDigests digests = ComputeCorpusDigests(data, kBlockRows);

  // Distinct ranges of the same corpus get distinct fingerprints.
  EXPECT_NE(ShardFingerprint(digests, 0, 8), ShardFingerprint(digests, 8, 16));
  // And the fingerprint is positional: the same block digests at a
  // different offset are a different shard.
  EXPECT_NE(ShardFingerprint(digests, 0, 4), ShardFingerprint(digests, 4, 8));
  // Recomputing digests from identical bytes reproduces the fingerprint.
  CorpusDigests again = ComputeCorpusDigests(data, kBlockRows);
  EXPECT_EQ(ShardFingerprint(digests, 0, 8), ShardFingerprint(again, 0, 8));
}

// ---------------------------------------------------------------------------
// Candidates kernel + merge: the restriction/merge identity on real
// distances.

TEST(ShardWorkerTest, InProcessRunsMergeToGlobalSelection) {
  const size_t kBlockRows = 16;
  Dataset data = RandomClassDataset(100, 3, 6, 21);
  Dataset query = SingleQuery(6, 22);
  CorpusDigests digests = ComputeCorpusDigests(data, kBlockRows);

  for (Metric metric : {Metric::kL2, Metric::kCosine}) {
    const CorpusNorms norms = NormsForMetric(data.features, metric);
    std::vector<double> expected_dists(data.Size());
    ComputeDistances(data.features, query.features.Row(0), metric, &norms,
                     expected_dists);

    for (size_t shard_count : {1u, 3u, 4u, 7u}) {
      std::vector<ShardRange> plan = PlanShards(digests, shard_count);
      std::vector<double> dists(data.Size());
      std::vector<std::vector<int>> runs(plan.size());
      for (size_t r : {0u, 1u, 5u, 50u, 100u}) {
        for (size_t s = 0; s < plan.size(); ++s) {
          ASSERT_TRUE(ShardCandidates(
              data.features, query.features.Row(0), metric, &norms,
              plan[s].row_begin, plan[s].row_end, r,
              std::span<double>(dists).subspan(plan[s].row_begin,
                                               plan[s].Rows()),
              &runs[s]));
          // Each run is the shard's exact top-min(r, Rows()), global
          // indices inside the shard's range.
          EXPECT_EQ(runs[s].size(), std::min(r, plan[s].Rows()));
          for (int index : runs[s]) {
            EXPECT_GE(static_cast<size_t>(index), plan[s].row_begin);
            EXPECT_LT(static_cast<size_t>(index), plan[s].row_end);
          }
        }
        // The shards collectively filled the global distance buffer
        // bit-identically to the unsharded kernel call.
        EXPECT_EQ(dists, expected_dists);

        // Merging the runs reproduces the global top-r exactly.
        std::vector<int> merged, expected_order;
        MergeSortedCandidateRuns(dists, runs, r, &merged);
        PartialArgsortDistances(expected_dists, r, &expected_order);
        EXPECT_EQ(merged, expected_order);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serve-level byte equivalence: sharded pipelines vs the unsharded one.

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

// Rows quantized to multiples of 0.5 in two dimensions: with 600 rows over
// a handful of cells, every query distance collides with dozens of others,
// exercising the cross-shard boundary-tie merge.
std::string TieRowsJson(size_t n, int num_classes, uint64_t seed) {
  Rng rng(seed);
  std::string out = "[";
  for (size_t r = 0; r < n; ++r) {
    if (r > 0) out += ",";
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%.1f,%.1f,%llu]",
                  0.5 * static_cast<double>(rng.NextIndex(5)),
                  0.5 * static_cast<double>(rng.NextIndex(5)),
                  static_cast<unsigned long long>(
                      rng.NextIndex(static_cast<uint64_t>(num_classes))));
    out += buf;
  }
  out += "]";
  return out;
}

// Sharded pipelines spawn one worker per shard from the real binary.
std::unique_ptr<RequestPipeline> MakePipeline(int shards) {
  PipelineOptions options;
  options.emit_timing = false;
  options.shards = shards;
  if (shards > 1) {
    options.shard_worker_command = ShardWorkerCommand(KNNSHAP_SERVE_BINARY);
  }
  return std::make_unique<RequestPipeline>(options);
}

std::string Answer(RequestPipeline& pipeline, const std::string& line) {
  JsonParseResult parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << parsed.error << " in " << line;
  return pipeline.HandleSync(parsed.value).Dump();
}

// The session every topology must answer identically: two corpora (one
// Gaussian, one tie-heavy), multi-query batches, full, truncated and
// cosine variants of every ranked method, plus a method that ranks
// nothing (it runs unsharded inside the same server and must also
// agree).
std::vector<std::string> EquivalenceSession(uint64_t seed) {
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"train","rows":)" +
                  RowsJson(600, 4, 3, seed) + R"(,"target":"label"})");
  lines.push_back(R"({"op":"load","name":"ties","rows":)" +
                  TieRowsJson(600, 3, seed + 1) + R"(,"target":"label"})");
  lines.push_back(R"({"op":"load","name":"q","rows":)" +
                  RowsJson(3, 4, 3, seed + 2) + R"(,"target":"label"})");
  lines.push_back(R"({"op":"load","name":"qt","rows":)" +
                  TieRowsJson(2, 3, seed + 3) + R"(,"target":"label"})");
  for (const char* train : {"train", "ties"}) {
    const char* test = train[0] == 't' && train[1] == 'r' ? "q" : "qt";
    for (const char* extra : {"", R"(,"approx_error":0.2)",
                              R"(,"approx_error":0.01)", R"(,"metric":"cosine")"}) {
      lines.push_back(std::string(R"({"op":"value","train":")") + train +
                      R"(","test":")" + test +
                      R"(","method":"exact","k":3)" + extra + "}");
      lines.push_back(std::string(R"({"op":"value","train":")") + train +
                      R"(","test":")" + test +
                      R"(","method":"exact-corrected","k":3)" + extra + "}");
    }
    for (const char* extra : {"", R"(,"approx_error":0.1)"}) {
      lines.push_back(std::string(R"({"op":"value","train":")") + train +
                      R"(","test":")" + test +
                      R"(","method":"weighted-fast","k":2,"kernel":"inverse")" +
                      extra + "}");
    }
    // Ranked to depth min(K*, N), then the truncated recursion.
    lines.push_back(std::string(R"({"op":"value","train":")") + train +
                    R"(","test":")" + test +
                    R"(","method":"truncated","k":3,"epsilon":0.1})");
    // Randomized LSH retrieval, no ranking: must run unsharded inside
    // the same server and still agree, seed pinned.
    lines.push_back(std::string(R"({"op":"value","train":")") + train +
                    R"(","test":")" + test +
                    R"(","method":"lsh","k":3,"epsilon":0.5,"delta":0.2,"seed":7})");
  }
  return lines;
}

TEST(ShardEquivalenceTest, ShardedResponsesAreByteIdentical) {
  const std::vector<std::string> session = EquivalenceSession(31);

  std::unique_ptr<RequestPipeline> baseline = MakePipeline(1);
  std::vector<std::string> expected;
  for (const std::string& line : session) {
    expected.push_back(Answer(*baseline, line));
  }

  // 600 rows = 3 fingerprint blocks, so 8 planned shards clamp to 3 —
  // the clamp path must be equivalence-preserving too.
  for (int shards : {2, 3, 8}) {
    std::unique_ptr<RequestPipeline> sharded = MakePipeline(shards);
    for (size_t i = 0; i < session.size(); ++i) {
      EXPECT_EQ(Answer(*sharded, session[i]), expected[i])
          << "shards=" << shards << " request: " << session[i];
    }
  }
}

TEST(ShardEquivalenceTest, GoldenShardSessionReproduces) {
  // The session/golden pair the CI shard smoke pipes through the real
  // binary on every topology; here the unsharded pipeline and a sharded
  // one with spawned workers replay it through HandleSync. Reference
  // kernel pinned, as for the main golden.
  const std::string dir = KNNSHAP_TEST_DATA_DIR;
  std::ifstream session_file(dir + "/serve_shard_session.jsonl");
  std::ifstream golden_file(dir + "/serve_shard_golden.jsonl");
  ASSERT_TRUE(session_file.good() && golden_file.good());
  std::vector<std::string> session, golden;
  std::string line;
  while (std::getline(session_file, line)) session.push_back(line);
  while (std::getline(golden_file, line)) golden.push_back(line);
  ASSERT_EQ(session.size(), golden.size());

  SetKernelOverride(KernelKind::kReference);
  for (int shards : {1, 3}) {
    std::unique_ptr<RequestPipeline> pipeline = MakePipeline(shards);
    for (size_t i = 0; i < session.size(); ++i) {
      EXPECT_EQ(Answer(*pipeline, session[i]), golden[i])
          << "shards=" << shards << " line " << (i + 1);
    }
  }
  SetKernelOverride(KernelKind::kAuto);
}

TEST(ShardEquivalenceTest, MutationsKeepShardedAndUnshardedInLockstep) {
  // Interleave value traffic with mutations: every append/remove rehashes
  // blocks, replans shards on the next fit, and must keep answers
  // identical to the unsharded server.
  std::vector<std::string> session;
  session.push_back(R"({"op":"load","name":"c","rows":)" +
                    RowsJson(600, 3, 2, 41) + R"(,"target":"label"})");
  session.push_back(R"({"op":"load","name":"q","rows":)" +
                    RowsJson(2, 3, 2, 42) + R"(,"target":"label"})");
  const std::string value =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3})";
  session.push_back(value);
  session.push_back(R"({"op":"append","name":"c","rows":)" +
                    RowsJson(5, 3, 2, 43) + "}");
  session.push_back(value);
  session.push_back(R"({"op":"remove","name":"c","row":100})");
  session.push_back(value);
  session.push_back(value);  // repeat: served from the result cache

  std::unique_ptr<RequestPipeline> baseline = MakePipeline(1);
  std::unique_ptr<RequestPipeline> sharded = MakePipeline(3);
  for (const std::string& line : session) {
    EXPECT_EQ(Answer(*sharded, line), Answer(*baseline, line))
        << "request: " << line;
  }
}

// ---------------------------------------------------------------------------
// Fit sharing: concurrent identical requests fit the sharded valuator once.

TEST(ShardServeTest, ConcurrentRequestsFitOnce) {
  std::unique_ptr<RequestPipeline> pipeline = MakePipeline(3);
  Answer(*pipeline, R"({"op":"load","name":"c","rows":)" +
                        RowsJson(600, 3, 2, 51) + R"(,"target":"label"})");
  Answer(*pipeline, R"({"op":"load","name":"q","rows":)" +
                        RowsJson(1, 3, 2, 52) + R"(,"target":"label"})");
  ASSERT_EQ(pipeline->Engine().FittedCount(), 0u);

  const std::string line =
      R"({"op":"value","train":"c","test":"q","method":"exact","k":3,"cache":false})";
  std::vector<std::string> responses(6);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < responses.size(); ++t) {
    threads.emplace_back(
        [&, t] { responses[t] = Answer(*pipeline, line); });
  }
  for (std::thread& thread : threads) thread.join();

  // One fitted valuator (per-corpus fit lock), six identical answers.
  EXPECT_EQ(pipeline->Engine().FittedCount(), 1u);
  for (const std::string& response : responses) {
    EXPECT_EQ(response, responses[0]);
  }
}

// ---------------------------------------------------------------------------
// Failure paths.

TEST(ShardServeTest, UnspawnableWorkerCommandIsAStructuredError) {
  // /bin/false exits without speaking the protocol: the spawn-time load
  // handshake fails and the engine answers internal, not a crash. No
  // command at all (a library caller asking for shards without placing
  // them) is refused the same way: there are no in-process shards.
  for (const std::vector<std::string>& command :
       {std::vector<std::string>{"/bin/false"}, std::vector<std::string>{}}) {
    PipelineOptions options;
    options.emit_timing = false;
    options.shards = 2;
    options.shard_worker_command = command;
    RequestPipeline pipeline(options);

    Answer(pipeline, R"({"op":"load","name":"c","rows":)" +
                         RowsJson(600, 3, 2, 61) + R"(,"target":"label"})");
    Answer(pipeline, R"({"op":"load","name":"q","rows":)" +
                         RowsJson(1, 3, 2, 62) + R"(,"target":"label"})");
    JsonValue response = pipeline.HandleSync(
        ParseJson(
            R"({"op":"value","train":"c","test":"q","method":"exact","k":3})")
            .value);
    EXPECT_FALSE(response.Get("ok").AsBool(true)) << command.size();
    EXPECT_EQ(response.Get("code").AsString(), "internal") << command.size();
    // The failed fit was not retained.
    EXPECT_EQ(pipeline.Engine().FittedCount(), 0u) << command.size();
  }
}

TEST(ShardServeTest, TopologyStatsGatedOnSharding) {
  std::unique_ptr<RequestPipeline> unsharded = MakePipeline(1);
  Answer(*unsharded, R"({"op":"load","name":"c","rows":)" +
                         RowsJson(600, 3, 2, 71) + R"(,"target":"label"})");
  JsonValue flat = unsharded->HandleSync(ParseJson(R"({"op":"stats"})").value);
  EXPECT_FALSE(flat.Has("topology"));

  std::unique_ptr<RequestPipeline> sharded = MakePipeline(3);
  Answer(*sharded, R"({"op":"load","name":"c","rows":)" +
                       RowsJson(600, 3, 2, 71) + R"(,"target":"label"})");
  JsonValue stats = sharded->HandleSync(ParseJson(R"({"op":"stats"})").value);
  ASSERT_TRUE(stats.Has("topology"));
  const JsonValue& topology = stats.Get("topology");
  EXPECT_EQ(topology.Get("shards").AsNumber(), 3.0);
  EXPECT_EQ(topology.Get("workers").AsString(), "process");
  const JsonValue& plan = topology.Get("plans").Get("c");
  ASSERT_TRUE(plan.IsArray());
  ASSERT_EQ(plan.Items().size(), 3u);
  size_t cursor = 0;
  for (const JsonValue& shard : plan.Items()) {
    EXPECT_EQ(shard.Get("row_begin").AsNumber(), static_cast<double>(cursor));
    cursor = static_cast<size_t>(shard.Get("row_end").AsNumber());
    EXPECT_EQ(shard.Get("fingerprint").AsString().substr(0, 2), "0x");
  }
  EXPECT_EQ(cursor, 600u);
}

// ---------------------------------------------------------------------------
// The `candidates` data plane (what a worker process serves its router).

class CandidatesOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pipeline_ = MakePipeline(1);
    Answer(*pipeline_, R"({"op":"load","name":"c","rows":)" +
                           RowsJson(600, 3, 2, 81) + R"(,"target":"label"})");
    snapshot_ = pipeline_->Store().Get("c");
    ASSERT_TRUE(snapshot_.has_value());
  }

  std::string Fingerprint(size_t row_begin, size_t row_end) const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(ShardFingerprint(
                      *snapshot_->digests, row_begin, row_end)));
    return buf;
  }

  static std::string QueryJson(size_t dim, uint64_t seed) {
    Rng rng(seed);
    std::string out = "[";
    for (size_t d = 0; d < dim; ++d) {
      if (d > 0) out += ",";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f", rng.NextGaussian());
      out += buf;
    }
    return out + "]";
  }

  JsonValue Candidates(const std::string& fields) {
    return pipeline_->HandleSync(
        ParseJson(R"({"op":"candidates","train":"c","metric":"l2")" + fields +
                  "}")
            .value);
  }

  std::unique_ptr<RequestPipeline> pipeline_;
  std::optional<CorpusSnapshot> snapshot_;
};

TEST_F(CandidatesOpTest, AnswersTheShardRestrictedSelection) {
  const size_t kBegin = 256, kEnd = 512, kR = 7;
  JsonValue response = Candidates(
      R"(,"r":7,"row_begin":256,"row_end":512,"fingerprint":")" +
      Fingerprint(kBegin, kEnd) + R"(","query":)" + QueryJson(3, 91));
  ASSERT_TRUE(response.Get("ok").AsBool(false)) << response.Dump();

  // Reproduce the expected run directly over the snapshot, parsing the
  // query text back the same way the server does (bit-for-bit floats).
  const Dataset& data = *snapshot_->data;
  std::vector<float> query(3);
  JsonValue parsed_query = ParseJson(QueryJson(3, 91)).value;
  for (size_t d = 0; d < 3; ++d) {
    query[d] = static_cast<float>(parsed_query.Items()[d].AsNumber());
  }
  std::vector<double> slice(kEnd - kBegin);
  ComputeDistancesRange(data.features, query, Metric::kL2, nullptr, kBegin,
                        kEnd, slice);
  std::vector<int> local;
  PartialArgsortDistances(slice, kR, &local);

  // Decode the packed run the way the router does.
  const ShardRange range{kBegin, kEnd, 0};
  std::vector<double> dists(data.Size());
  std::vector<int> run;
  const Status status = wire::ParseCandidatesResponse(response.Dump(), range,
                                                      kR, dists, &run);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(run.size(), kR);
  for (size_t i = 0; i < kR; ++i) {
    EXPECT_EQ(run[i], local[i] + static_cast<int>(kBegin));
    const double expected = slice[static_cast<size_t>(local[i])];
    const double actual = dists[static_cast<size_t>(run[i])];
    EXPECT_EQ(std::memcmp(&actual, &expected, sizeof expected), 0)
        << "distance " << i << " is not bit-equal";
  }
}

// A --shard-listen worker answers every connection from one pipeline: a
// query must keep its norms while another connection's request for a
// different metric refills the norms cache.
TEST_F(CandidatesOpTest, ConcurrentMetricsMatchTheSerialReplies) {
  const std::string metrics[] = {"l2", "l1"};
  const auto request = [&](const std::string& metric) {
    return ParseJson(R"({"op":"candidates","train":"c","metric":")" + metric +
                     R"(","r":7,"row_begin":0,"row_end":600,"fingerprint":")" +
                     Fingerprint(0, 600) + R"(","query":)" + QueryJson(3, 96) +
                     "}")
        .value;
  };
  std::string serial[2];
  for (int m = 0; m < 2; ++m) {
    const JsonValue reply = pipeline_->HandleSync(request(metrics[m]));
    ASSERT_TRUE(reply.Get("ok").AsBool(false)) << reply.Dump();
    serial[m] = reply.Dump();
  }
  ASSERT_NE(serial[0], serial[1]);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int m = (i + t) % 2;
        if (pipeline_->HandleSync(request(metrics[m])).Dump() != serial[m]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(CandidatesOpTest, RejectsStaleFingerprint) {
  JsonValue response = Candidates(
      R"(,"r":5,"row_begin":256,"row_end":512,"fingerprint":"0x00000000deadbeef","query":)" +
      QueryJson(3, 92));
  EXPECT_FALSE(response.Get("ok").AsBool(true));
  EXPECT_EQ(response.Get("code").AsString(), "failed_precondition");
}

TEST_F(CandidatesOpTest, RejectsMisalignedRange) {
  JsonValue response = Candidates(
      R"(,"r":5,"row_begin":100,"row_end":512,"fingerprint":")" +
      Fingerprint(0, 512) + R"(","query":)" + QueryJson(3, 93));
  EXPECT_FALSE(response.Get("ok").AsBool(true));
  EXPECT_EQ(response.Get("code").AsString(), "invalid_argument");
}

TEST_F(CandidatesOpTest, RejectsAnOutOfRangeDeadline) {
  // The value op's deadline validator: no cast of 1e300 to int64.
  for (const char* bad : {"1e300", "-1", "2.5"}) {
    JsonValue response = Candidates(
        R"(,"r":5,"row_begin":256,"row_end":512,"fingerprint":")" +
        Fingerprint(256, 512) + R"(","query":)" + QueryJson(3, 95) +
        R"(,"deadline_ms":)" + bad);
    EXPECT_FALSE(response.Get("ok").AsBool(true)) << bad;
    EXPECT_EQ(response.Get("code").AsString(), "invalid_argument") << bad;
    EXPECT_EQ(response.Get("field").AsString(), "deadline_ms") << bad;
  }
}

TEST_F(CandidatesOpTest, RejectsNonFiniteQueryCells) {
  // 1e999 parses as inf; 1e39 is finite but rounds to an inf float.
  for (const char* query : {"[1e999,0,0]", "[0,-1e999,0]", "[0,0,1e39]"}) {
    JsonValue response = Candidates(
        R"(,"r":5,"row_begin":256,"row_end":512,"fingerprint":")" +
        Fingerprint(256, 512) + R"(","query":)" + query);
    EXPECT_FALSE(response.Get("ok").AsBool(true)) << query;
    EXPECT_EQ(response.Get("code").AsString(), "invalid_argument") << query;
    EXPECT_EQ(response.Get("field").AsString(), "query") << query;
  }
}

TEST_F(CandidatesOpTest, RejectsOutOfRangeRows) {
  JsonValue response = Candidates(
      R"(,"r":5,"row_begin":512,"row_end":1024,"fingerprint":")" +
      Fingerprint(256, 512) + R"(","query":)" + QueryJson(3, 94));
  EXPECT_FALSE(response.Get("ok").AsBool(true));
  EXPECT_EQ(response.Get("code").AsString(), "invalid_argument");
}

// ---------------------------------------------------------------------------
// Routers through the real binary (spawning their own workers): byte
// equivalence, a killed child, and no child outliving its router.

using testing_util::ChildPids;
using testing_util::ProcessState;
using testing_util::ReadLine;
using testing_util::ServeProcess;
using testing_util::SpawnServe;

std::vector<std::string> DataLines(const std::string& file) {
  std::ifstream in(std::string(KNNSHAP_TEST_DATA_DIR) + "/" + file);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// A --shards=3 router; `workers` is its --shard-workers value, or empty
// for the flag's default.
ServeProcess SpawnRouter(const std::string& workers = "") {
  std::vector<std::string> args = {"--no-timing", "--kernel=reference",
                                   "--shards=3"};
  if (!workers.empty()) args.push_back("--shard-workers=" + workers);
  return SpawnServe(KNNSHAP_SERVE_BINARY, args);
}

// Sends each line and waits for its reply before the next, so every
// request runs against the state the previous one left.
std::vector<std::string> Exchange(const ServeProcess& server,
                                  const std::vector<std::string>& lines) {
  std::vector<std::string> replies;
  for (const std::string& line : lines) {
    const std::string framed = line + "\n";
    if (write(server.to_server, framed.data(), framed.size()) !=
        static_cast<ssize_t>(framed.size())) {
      break;
    }
    replies.push_back(ReadLine(server.from_server, 30000));
  }
  return replies;
}

// Polls `done` for up to ten seconds.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

// Closes the server's pipes and reaps it; true when it exited 0.
bool Finish(const ServeProcess& server) {
  close(server.to_server);
  close(server.from_server);
  int status = 0;
  if (!WaitFor([&] { return waitpid(server.pid, &status, WNOHANG) != 0; })) {
    kill(server.pid, SIGKILL);
    waitpid(server.pid, &status, 0);
    return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

const char kUncachedValue[] =
    R"({"op":"value","train":"train","test":"q","method":"exact","k":3,"cache":false})";

TEST(ShardProcessTest, GoldenShardSessionReproducesThroughTheBinary) {
  const std::vector<std::string> session =
      DataLines("serve_shard_session.jsonl");
  const std::vector<std::string> golden = DataLines("serve_shard_golden.jsonl");
  ASSERT_EQ(session.size(), golden.size());
  for (const std::string workers : {"self", ""}) {
    ServeProcess server = SpawnRouter(workers);
    ASSERT_GT(server.pid, 0);
    EXPECT_EQ(Exchange(server, session), golden)
        << "--shard-workers=" << workers;
    EXPECT_TRUE(Finish(server)) << "--shard-workers=" << workers;
  }
  std::remove("serve_shard_golden.cache");  // the session's save_cache
}

TEST(ShardProcessTest, KilledWorkerAnswersUnavailableThenRespawns) {
  const std::vector<std::string> session =
      DataLines("serve_shard_session.jsonl");
  const std::vector<std::string> golden = DataLines("serve_shard_golden.jsonl");
  ASSERT_GE(golden.size(), 4u);
  ServeProcess server = SpawnRouter("self");
  ASSERT_GT(server.pid, 0);
  // Three loads, then a value request whose fit spawns one child per
  // shard. An uncached exact request answers the bytes of golden line 4.
  const std::vector<std::string> replies =
      Exchange(server, {session[0], session[1], session[2], kUncachedValue});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[3], golden[3]);
  const std::vector<pid_t> first = ChildPids(server.pid);
  ASSERT_EQ(first.size(), 3u);

  ASSERT_EQ(kill(first[0], SIGKILL), 0);
  ASSERT_TRUE(WaitFor([&] {
    const char state = ProcessState(first[0]);
    return state == 'Z' || state == '\0';
  }));
  const JsonValue lost = ParseJson(Exchange(server, {kUncachedValue})[0]).value;
  EXPECT_FALSE(lost.Get("ok").AsBool(true));
  EXPECT_EQ(lost.Get("code").AsString(), "unavailable");
  EXPECT_TRUE(lost.Has("retry_after_ms"));

  // The next request re-fits, respawning every worker, and answers
  // byte-identically; the evicted topology's children — the killed one
  // included — are reaped rather than left as zombies.
  EXPECT_EQ(Exchange(server, {kUncachedValue})[0], golden[3]);
  for (pid_t pid : first) {
    EXPECT_TRUE(WaitFor([&] { return ProcessState(pid) == '\0'; }))
        << "old worker " << pid << " in state " << ProcessState(pid);
  }
  EXPECT_EQ(ChildPids(server.pid).size(), 3u);
  Exchange(server, {R"({"op":"quit"})"});
  EXPECT_TRUE(Finish(server));
}

TEST(ShardProcessTest, PipelinedTwinsMeetALostWorkerInDispatchOrder) {
  // CI's shard chaos arm: every child _exit()s on its fourth candidates
  // op, which is the second query of the second of three identical
  // uncached requests sent back to back. Uncached twins run in dispatch
  // order, so exactly that request fails and the third re-fits.
  const std::vector<std::string> session =
      DataLines("serve_shard_session.jsonl");
  const std::vector<std::string> golden = DataLines("serve_shard_golden.jsonl");
  setenv("KNNSHAP_FAULTS", "shard_candidates:after=3", 1);
  ServeProcess server = SpawnRouter("self");
  unsetenv("KNNSHAP_FAULTS");
  ASSERT_GT(server.pid, 0);
  std::string input;
  for (const std::string& line :
       {session[0], session[1], session[2], std::string(kUncachedValue),
        std::string(kUncachedValue), std::string(kUncachedValue),
        std::string(R"({"op":"quit"})")}) {
    input += line + "\n";
  }
  ASSERT_EQ(write(server.to_server, input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  std::vector<std::string> replies;
  for (int i = 0; i < 7; ++i) {
    replies.push_back(ReadLine(server.from_server, 30000));
  }
  EXPECT_EQ(replies[3], golden[3]);
  const JsonValue lost = ParseJson(replies[4]).value;
  EXPECT_EQ(lost.Get("code").AsString(), "unavailable") << replies[4];
  EXPECT_TRUE(lost.Has("retry_after_ms"));
  EXPECT_EQ(replies[5], golden[3]);
  EXPECT_TRUE(Finish(server));
}

TEST(ShardProcessTest, NoSpawnedWorkerOutlivesItsRouter) {
  const std::vector<std::string> session =
      DataLines("serve_shard_session.jsonl");
  ServeProcess server = SpawnRouter("self");
  ASSERT_GT(server.pid, 0);
  Exchange(server, {session[0], session[1], session[2], kUncachedValue});
  const std::vector<pid_t> children = ChildPids(server.pid);
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(Exchange(server, {R"({"op":"quit"})"}),
            std::vector<std::string>{R"({"ok":true,"bye":true})"});
  ASSERT_TRUE(Finish(server));
  // The router reaps its children before it exits, so the moment it is
  // gone none of them is left running or as a zombie.
  for (pid_t pid : children) {
    EXPECT_EQ(ProcessState(pid), '\0') << "worker " << pid;
  }
}
}  // namespace
}  // namespace knnshap
