// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Hostile input for the shard-worker ops (src/shard/shard_service.h). Each
// table row mutates one field of a valid `candidates` or `load_delta`
// request; the service must answer the row's structured error code and
// leave the stored corpus as it was. A fatal check or a cast of an
// out-of-range double would kill the binary (or trip the sanitizer arm),
// so reaching the end of a table is part of the check. The valid requests
// come from the router's own builders (shard/wire.h).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dataset/dataset.h"
#include "knn/distance_kernel.h"
#include "serve/corpus_store.h"
#include "shard/shard_planner.h"
#include "shard/shard_service.h"
#include "shard/wire.h"
#include "test_util.h"
#include "util/fingerprint.h"
#include "util/json.h"

namespace knnshap {
namespace {

using testing_util::RandomClassDataset;
using testing_util::RandomRegDataset;

/// A copy of `object` without `key`.
JsonValue Without(const JsonValue& object, const std::string& key) {
  JsonValue out = JsonValue::MakeObject();
  for (const auto& [name, value] : object.Fields()) {
    if (name != key) out.Set(name, value);
  }
  return out;
}

/// `object` with `key` set to `value`.
JsonValue With(JsonValue object, const std::string& key, JsonValue value) {
  object.Set(key, std::move(value));
  return object;
}

/// The whole corpus as a window, the one a client-loaded corpus holds.
ShardRange Whole(const Dataset& corpus) { return {0, corpus.Size(), 0}; }

struct HostileCase {
  const char* what;
  std::function<JsonValue(const JsonValue& good)> mutate;
  const char* code;
};

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.Size(), b.Size());
  ASSERT_EQ(a.Dim(), b.Dim());
  for (size_t i = 0; i < a.Size(); ++i) {
    for (size_t c = 0; c < a.Dim(); ++c) {
      ASSERT_EQ(a.features.At(i, c), b.features.At(i, c)) << i << "," << c;
    }
  }
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.targets, b.targets);
}

class ShardServiceTest : public ::testing::Test {
 protected:
  // 600 rows: fingerprint blocks [0, 256), [256, 512) and a partial
  // [512, 600).
  void SetUp() override {
    corpus_ = RandomClassDataset(600, 3, 4, 5);
    fingerprint_ = store_.Put("c", corpus_).snapshot.fingerprint;
  }

  JsonValue GoodCandidates() const {
    const CorpusDigests digests = ComputeCorpusDigests(corpus_);
    const ShardRange range{256, 512, ShardFingerprint(digests, 256, 512)};
    const std::vector<float> query = {0.5f, -1.0f, 0.25f, 2.0f};
    return wire::BuildCandidatesRequest(range, "c", Metric::kL2, query, 10);
  }

  CorpusStore store_;
  ShardService service_{&store_};
  Dataset corpus_;
  uint64_t fingerprint_ = 0;
};

TEST_F(ShardServiceTest, HostileCandidatesAreStructuredErrors) {
  const JsonValue good = GoodCandidates();
  const JsonValue answered = service_.Candidates(good);
  ASSERT_TRUE(answered.Get("ok").AsBool(false)) << answered.Dump();
  const double inf = std::numeric_limits<double>::infinity();

  const std::vector<HostileCase> cases = {
      {"unknown corpus",
       [](const JsonValue& g) { return With(g, "train", JsonValue("nope")); },
       "not_found"},
      {"unknown metric",
       [](const JsonValue& g) { return With(g, "metric", JsonValue("l3")); },
       "invalid_argument"},
      {"missing r", [](const JsonValue& g) { return Without(g, "r"); },
       "invalid_argument"},
      {"negative r",
       [](const JsonValue& g) { return With(g, "r", JsonValue(-1.0)); },
       "invalid_argument"},
      {"fractional r",
       [](const JsonValue& g) { return With(g, "r", JsonValue(2.5)); },
       "invalid_argument"},
      {"huge r",
       [](const JsonValue& g) { return With(g, "r", JsonValue(1e300)); },
       "invalid_argument"},
      {"string r",
       [](const JsonValue& g) { return With(g, "r", JsonValue("10")); },
       "invalid_argument"},
      {"missing row_begin",
       [](const JsonValue& g) { return Without(g, "row_begin"); },
       "invalid_argument"},
      {"fractional row_begin",
       [](const JsonValue& g) { return With(g, "row_begin", JsonValue(0.5)); },
       "invalid_argument"},
      {"missing row_end",
       [](const JsonValue& g) { return Without(g, "row_end"); },
       "invalid_argument"},
      {"negative row_end",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(-512.0)); },
       "invalid_argument"},
      {"huge row_end",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(1e20)); },
       "invalid_argument"},
      {"range past the corpus",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(601)); },
       "invalid_argument"},
      {"empty range",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(256)); },
       "invalid_argument"},
      {"begin not block-aligned",
       [](const JsonValue& g) { return With(g, "row_begin", JsonValue(100)); },
       "invalid_argument"},
      {"end not block-aligned",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(300)); },
       "invalid_argument"},
      {"shard fingerprint mismatch",
       [](const JsonValue& g) {
         return With(g, "fingerprint", JsonValue("0x0000000000000001"));
       },
       "failed_precondition"},
      {"missing fingerprint",
       [](const JsonValue& g) { return Without(g, "fingerprint"); },
       "failed_precondition"},
      {"query too short",
       [](const JsonValue& g) {
         JsonValue query = g.Get("query");
         query.Items().pop_back();
         return With(g, "query", std::move(query));
       },
       "invalid_argument"},
      {"query too long",
       [](const JsonValue& g) {
         JsonValue query = g.Get("query");
         query.Append(JsonValue(1.0));
         return With(g, "query", std::move(query));
       },
       "invalid_argument"},
      {"query not an array",
       [](const JsonValue& g) { return With(g, "query", JsonValue(1.0)); },
       "invalid_argument"},
      {"infinite query cell",
       [inf](const JsonValue& g) {
         JsonValue query = g.Get("query");
         query.Items()[1] = JsonValue(inf);
         return With(g, "query", std::move(query));
       },
       "invalid_argument"},
      {"query cell beyond float",
       [](const JsonValue& g) {
         JsonValue query = g.Get("query");
         query.Items()[2] = JsonValue(1e300);
         return With(g, "query", std::move(query));
       },
       "invalid_argument"},
      {"string query cell",
       [](const JsonValue& g) {
         JsonValue query = g.Get("query");
         query.Items()[0] = JsonValue("0.5");
         return With(g, "query", std::move(query));
       },
       "invalid_argument"},
      {"negative deadline",
       [](const JsonValue& g) {
         return With(g, "deadline_ms", JsonValue(-1.0));
       },
       "invalid_argument"},
  };
  for (const HostileCase& c : cases) {
    const JsonValue response = service_.Candidates(c.mutate(good));
    EXPECT_FALSE(response.Get("ok").AsBool(true)) << c.what;
    EXPECT_EQ(response.Get("code").AsString(), c.code) << c.what;
    EXPECT_FALSE(response.Get("error").AsString().empty()) << c.what;
  }
  EXPECT_EQ(store_.Get("c")->fingerprint, fingerprint_);
  // The partial last block ends at the corpus end, not on a block edge.
  JsonValue tail = With(good, "row_begin", JsonValue(512));
  tail.Set("row_end", JsonValue(600));
  tail.Set("fingerprint",
           JsonValue(wire::FingerprintHex(ShardFingerprint(
               ComputeCorpusDigests(corpus_), 512, 600))));
  EXPECT_TRUE(service_.Candidates(tail).Get("ok").AsBool(false));
}

// The reply's form follows r: a top-r run while r is below the range's
// rows, the whole distance column once r covers them. Both decode through
// the router's parser to the distances of one ComputeDistancesRange pass.
TEST_F(ShardServiceTest, CandidatesFormFollowsRAgainstTheRangeRows) {
  const JsonValue good = GoodCandidates();
  const ShardRange range{256, 512, 0};
  const std::vector<float> query = {0.5f, -1.0f, 0.25f, 2.0f};
  const CorpusNorms norms = NormsForMetric(corpus_.features, Metric::kL2);
  std::vector<double> expected(range.Rows());
  ComputeDistancesRange(corpus_.features, query, Metric::kL2, &norms,
                        range.row_begin, range.row_end, expected);
  struct Row {
    size_t r;
    bool column;
  };
  for (const Row& row : {Row{range.Rows() - 1, false}, Row{range.Rows(), true},
                         Row{range.Rows() + 1, true}}) {
    const JsonValue reply = service_.Candidates(
        With(good, "r", JsonValue(static_cast<double>(row.r))));
    ASSERT_TRUE(reply.Get("ok").AsBool(false)) << row.r;
    EXPECT_EQ(reply.Has("dists"), row.column) << row.r;
    EXPECT_EQ(reply.Has("run"), !row.column) << row.r;
    std::vector<double> dists(600, -1.0);
    std::vector<int> run;
    const Status status =
        wire::ParseCandidatesResponse(reply.Dump(), range, row.r, dists, &run);
    ASSERT_TRUE(status.ok()) << row.r << ": " << status.message();
    EXPECT_EQ(run.size(), row.column ? 0 : row.r) << row.r;
    // The column fills every row of the range; the run every row but the
    // farthest.
    size_t filled = 0;
    for (size_t i = 0; i < range.Rows(); ++i) {
      const double got = dists[range.row_begin + i];
      if (got == -1.0) continue;
      ++filled;
      EXPECT_EQ(std::bit_cast<uint64_t>(got),
                std::bit_cast<uint64_t>(expected[i]))
          << "row " << i << " at r " << row.r;
    }
    EXPECT_EQ(filled, row.column ? range.Rows() : row.r) << row.r;
  }
}

TEST_F(ShardServiceTest, HostileDeltasAreStructuredErrors) {
  Dataset next = corpus_;
  next.features.MutableRow(300)[1] += 1.0f;
  const CorpusDigests digests = ComputeCorpusDigests(next);
  const JsonValue good = wire::BuildDeltaLoadRequest("c", next, digests, Whole(next), {1});

  const auto with_blocks = [](const JsonValue& g,
                              std::vector<JsonValue> entries) {
    JsonValue blocks = JsonValue::MakeArray();
    for (JsonValue& entry : entries) blocks.Append(std::move(entry));
    return With(g, "blocks", std::move(blocks));
  };
  const auto block_numbered = [](const JsonValue& g, JsonValue index) {
    return With(g.Get("blocks").Items()[0], "block", std::move(index));
  };
  const std::vector<HostileCase> cases = {
      {"missing name", [](const JsonValue& g) { return Without(g, "name"); },
       "invalid_argument"},
      {"unknown corpus",
       [](const JsonValue& g) { return With(g, "name", JsonValue("nope")); },
       "not_found"},
      {"unknown target mode",
       [](const JsonValue& g) { return With(g, "target", JsonValue("both")); },
       "invalid_argument"},
      {"target mismatch",
       [](const JsonValue& g) {
         return With(g, "target", JsonValue("target"));
       },
       "failed_precondition"},
      {"dim mismatch",
       [](const JsonValue& g) { return With(g, "dim", JsonValue(5)); },
       "failed_precondition"},
      {"zero dim",
       [](const JsonValue& g) { return With(g, "dim", JsonValue(0)); },
       "invalid_argument"},
      {"fractional rows",
       [](const JsonValue& g) { return With(g, "rows", JsonValue(599.5)); },
       "invalid_argument"},
      {"huge rows",
       [](const JsonValue& g) { return With(g, "rows", JsonValue(1e300)); },
       "invalid_argument"},
      {"fingerprint without 0x",
       [](const JsonValue& g) {
         return With(g, "fingerprint", JsonValue("deadbeef"));
       },
       "invalid_argument"},
      {"fingerprint not hex",
       [](const JsonValue& g) {
         return With(g, "fingerprint", JsonValue("0xZZ"));
       },
       "invalid_argument"},
      {"signed fingerprint",
       [](const JsonValue& g) {
         return With(g, "fingerprint", JsonValue("0x-1"));
       },
       "invalid_argument"},
      {"fingerprint with a space",
       [](const JsonValue& g) {
         return With(g, "fingerprint", JsonValue("0x 12"));
       },
       "invalid_argument"},
      {"fingerprint over 64 bits",
       [](const JsonValue& g) {
         return With(g, "fingerprint", JsonValue("0x10000000000000000"));
       },
       "invalid_argument"},
      {"blocks not an array",
       [](const JsonValue& g) { return With(g, "blocks", JsonValue(1)); },
       "invalid_argument"},
      {"duplicate block",
       [with_blocks](const JsonValue& g) {
         const JsonValue& entry = g.Get("blocks").Items()[0];
         return with_blocks(g, {entry, entry});
       },
       "invalid_argument"},
      {"fractional block",
       [with_blocks, block_numbered](const JsonValue& g) {
         return with_blocks(g, {block_numbered(g, JsonValue(1.5))});
       },
       "invalid_argument"},
      {"negative block",
       [with_blocks, block_numbered](const JsonValue& g) {
         return with_blocks(g, {block_numbered(g, JsonValue(-1.0))});
       },
       "invalid_argument"},
      {"block past the new row count",
       [with_blocks, block_numbered](const JsonValue& g) {
         return with_blocks(g, {block_numbered(g, JsonValue(3))});
       },
       "invalid_argument"},
      {"huge block",
       [with_blocks, block_numbered](const JsonValue& g) {
         return with_blocks(g, {block_numbered(g, JsonValue(1e300))});
       },
       "invalid_argument"},
      {"block with the wrong row count",
       [with_blocks](const JsonValue& g) {
         return with_blocks(
             g, {With(g.Get("blocks").Items()[0], "count", JsonValue(255))});
       },
       "invalid_argument"},
      {"unchanged block outside the stored corpus",
       [](const JsonValue& g) { return With(g, "rows", JsonValue(900)); },
       "failed_precondition"},
  };
  for (const HostileCase& c : cases) {
    std::vector<uint64_t> retired;
    const JsonValue response = service_.LoadDelta(c.mutate(good), &retired);
    EXPECT_FALSE(response.Get("ok").AsBool(true)) << c.what;
    EXPECT_EQ(response.Get("code").AsString(), c.code) << c.what;
    EXPECT_TRUE(retired.empty()) << c.what;
    ASSERT_TRUE(store_.Get("c").has_value()) << c.what;
    EXPECT_EQ(store_.Get("c")->fingerprint, fingerprint_) << c.what;
  }

  // A splice whose result the router did not expect is data loss: the
  // corpus is dropped, never served, and its old contents are retired.
  std::vector<uint64_t> retired;
  const JsonValue lost = service_.LoadDelta(
      With(good, "fingerprint", JsonValue("0x0000000000000001")), &retired);
  EXPECT_EQ(lost.Get("code").AsString(), "data_loss") << lost.Dump();
  EXPECT_FALSE(store_.Get("c").has_value());
  ASSERT_FALSE(retired.empty());
  EXPECT_EQ(retired.front(), fingerprint_);
}

TEST_F(ShardServiceTest, DeltaSplicesChangedBlocksAndKeepsTheRest) {
  Dataset next = corpus_;
  next.features.MutableRow(300)[1] += 1.0f;
  next.labels[599] = (next.labels[599] + 1) % 3;
  const CorpusDigests digests = ComputeCorpusDigests(next);
  std::vector<uint64_t> retired;
  const JsonValue applied = service_.LoadDelta(
      wire::BuildDeltaLoadRequest("c", next, digests, Whole(next), {1, 2}),
      &retired);
  ASSERT_TRUE(applied.Get("ok").AsBool(false)) << applied.Dump();
  EXPECT_EQ(applied.Get("applied").AsNumber(), 2.0);
  EXPECT_EQ(applied.Get("fingerprint").AsString(),
            wire::FingerprintHex(digests.Combined()));
  EXPECT_EQ(retired, std::vector<uint64_t>{fingerprint_});
  ExpectSameDataset(*store_.Get("c")->data, next);

  // A regression corpus keeps its targets the same way, and a delta may
  // grow the corpus by whole new blocks.
  const Dataset reg = RandomRegDataset(300, 3, 9);
  store_.Put("r", reg);
  Dataset grown = reg;
  const Dataset extra = RandomRegDataset(300, 3, 10);
  grown.features.AppendRows(extra.features);
  grown.targets.insert(grown.targets.end(), extra.targets.begin(),
                       extra.targets.end());
  const CorpusDigests grown_digests = ComputeCorpusDigests(grown);
  retired.clear();
  const JsonValue appended = service_.LoadDelta(
      wire::BuildDeltaLoadRequest("r", grown, grown_digests, Whole(grown),
                                  {1, 2}),
      &retired);
  ASSERT_TRUE(appended.Get("ok").AsBool(false)) << appended.Dump();
  ExpectSameDataset(*store_.Get("r")->data, grown);
}

TEST_F(ShardServiceTest, DigestsReportTheStoredVersion) {
  const JsonValue unknown =
      service_.Digests(ParseJson(R"({"op":"digests","name":"nope"})").value);
  EXPECT_EQ(unknown.Get("code").AsString(), "not_found");
  const JsonValue reply =
      service_.Digests(ParseJson(R"({"op":"digests","name":"c"})").value);
  ASSERT_TRUE(reply.Get("ok").AsBool(false)) << reply.Dump();
  EXPECT_EQ(reply.Get("rows").AsNumber(), 600.0);
  EXPECT_EQ(reply.Get("block_rows").AsNumber(), 256.0);
  EXPECT_EQ(reply.Get("target").AsString(), "label");
  EXPECT_EQ(reply.Get("fingerprint").AsString(),
            wire::FingerprintHex(fingerprint_));
  EXPECT_EQ(reply.Get("blocks").Items().size(), 3u);
}

// A worker holds only its shard's window: corpus rows [row_begin, row_end)
// synced by load_delta, every block of it at first, then only the blocks
// that entered when the window moved. 1500 rows: blocks 0-4 full, block 5
// the partial [1280, 1500).
class WindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = RandomClassDataset(1500, 3, 4, 17);
    digests_ = ComputeCorpusDigests(corpus_);
    // The held window [256, 768): blocks 1 and 2, every block sent.
    const JsonValue first = service_.LoadDelta(Load({256, 768}, {1, 2}),
                                               &retired_);
    ASSERT_TRUE(first.Get("ok").AsBool(false)) << first.Dump();
    held_ = *store_.Get("w");
  }

  ShardRange Window(size_t row_begin, size_t row_end) const {
    return {row_begin, row_end,
            ShardFingerprint(digests_, row_begin, row_end)};
  }

  JsonValue Load(std::pair<size_t, size_t> window,
                 const std::vector<size_t>& blocks) const {
    return wire::BuildDeltaLoadRequest(
        "w", corpus_, digests_, Window(window.first, window.second), blocks);
  }

  /// Rows [row_begin, row_end) of the corpus, as a dataset.
  Dataset Rows(size_t row_begin, size_t row_end) const {
    std::vector<int> rows;
    for (size_t i = row_begin; i < row_end; ++i) {
      rows.push_back(static_cast<int>(i));
    }
    return corpus_.Subset(rows);
  }

  CorpusStore store_;
  ShardService service_{&store_};
  Dataset corpus_;
  CorpusDigests digests_;
  CorpusSnapshot held_;
  std::vector<uint64_t> retired_;
};

TEST_F(WindowTest, FirstSyncHoldsTheWindowAndNothingElse) {
  EXPECT_TRUE(held_.window);
  EXPECT_EQ(held_.row_begin, 256u);
  EXPECT_EQ(held_.fingerprint, WindowDigests(digests_, 256, 768).Combined());
  ExpectSameDataset(*held_.data, Rows(256, 768));

  // `digests` reports the window and its two blocks.
  const JsonValue reply =
      service_.Digests(ParseJson(R"({"op":"digests","name":"w"})").value);
  ASSERT_TRUE(reply.Get("ok").AsBool(false)) << reply.Dump();
  EXPECT_EQ(reply.Get("row_begin").AsNumber(), 256.0);
  EXPECT_EQ(reply.Get("rows").AsNumber(), 512.0);
  EXPECT_EQ(reply.Get("blocks").Items().size(), 2u);
  // Planning the same window against it ships nothing.
  EXPECT_EQ(wire::PlanCorpusSync(corpus_, digests_, Window(256, 768), reply)
                .mode,
            wire::CorpusSyncPlan::Mode::kNone);

  // A corpus a client loaded is whole: no window fields on its replies.
  store_.Put("c", corpus_);
  const JsonValue whole =
      service_.Digests(ParseJson(R"({"op":"digests","name":"c"})").value);
  EXPECT_FALSE(whole.Has("row_begin"));
  EXPECT_FALSE(store_.Get("c")->window);

  // No mutation answers on a window as though it were the corpus.
  CorpusMutation mutation;
  std::string error;
  EXPECT_FALSE(store_.Append("w", Rows(0, 1), &mutation, &error));
  EXPECT_NE(error.find("shard window"), std::string::npos) << error;
  EXPECT_FALSE(store_.RemoveRow("w", 0, &mutation, &error));
  EXPECT_NE(error.find("shard window"), std::string::npos) << error;
}

// Candidates keep global addressing: a range inside the window answers
// byte-identically to the same request against the whole corpus.
TEST_F(WindowTest, CandidatesInsideTheWindowMatchTheWholeCorpus) {
  CorpusStore whole_store;
  whole_store.Put("w", corpus_);
  ShardService whole{&whole_store};
  const std::vector<float> query = {0.5f, -1.0f, 0.25f, 2.0f};
  for (const auto& [b, e] : std::vector<std::pair<size_t, size_t>>{
           {256, 768}, {256, 512}, {512, 768}}) {
    for (size_t r : {size_t{7}, e - b}) {
      const JsonValue request = wire::BuildCandidatesRequest(
          Window(b, e), "w", Metric::kL2, query, r);
      const JsonValue reply = service_.Candidates(request);
      ASSERT_TRUE(reply.Get("ok").AsBool(false)) << reply.Dump();
      EXPECT_EQ(reply.Dump(), whole.Candidates(request).Dump())
          << b << "-" << e << " r " << r;
    }
  }
  // Rows outside the window are not held.
  for (const auto& [b, e] : std::vector<std::pair<size_t, size_t>>{
           {0, 256}, {768, 1024}, {512, 1024}}) {
    const JsonValue reply = service_.Candidates(wire::BuildCandidatesRequest(
        Window(b, e), "w", Metric::kL2, query, 7));
    EXPECT_EQ(reply.Get("code").AsString(), "invalid_argument") << b;
  }
}

TEST_F(WindowTest, HostileWindowsAreStructuredErrors) {
  // The good request moves the window to [512, 1024): block 2 is kept,
  // block 3 enters.
  const JsonValue good = Load({512, 1024}, {3});
  const auto with_blocks = [](const JsonValue& g,
                              std::vector<JsonValue> entries) {
    JsonValue blocks = JsonValue::MakeArray();
    for (JsonValue& entry : entries) blocks.Append(std::move(entry));
    return With(g, "blocks", std::move(blocks));
  };
  const std::vector<HostileCase> cases = {
      {"window past the rows",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(1756)); },
       "invalid_argument"},
      {"window end past a short corpus",
       [](const JsonValue& g) { return With(g, "rows", JsonValue(900)); },
       "invalid_argument"},
      {"unaligned row_begin",
       [](const JsonValue& g) { return With(g, "row_begin", JsonValue(500)); },
       "invalid_argument"},
      {"unaligned row_end inside the corpus",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(1000)); },
       "invalid_argument"},
      {"empty window",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(512)); },
       "invalid_argument"},
      {"fractional row_begin",
       [](const JsonValue& g) { return With(g, "row_begin", JsonValue(0.5)); },
       "invalid_argument"},
      {"string row_end",
       [](const JsonValue& g) {
         return With(g, "row_end", JsonValue("1024"));
       },
       "invalid_argument"},
      {"huge row_end",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(1e300)); },
       "invalid_argument"},
      {"a block after the window",
       [with_blocks](const JsonValue& g) {
         return with_blocks(g, {With(g.Get("blocks").Items()[0], "block",
                                     JsonValue(4))});
       },
       "invalid_argument"},
      {"a block before the window",
       [with_blocks](const JsonValue& g) {
         return with_blocks(g, {With(g.Get("blocks").Items()[0], "block",
                                     JsonValue(1))});
       },
       "invalid_argument"},
      {"duplicate block",
       [with_blocks](const JsonValue& g) {
         const JsonValue& entry = g.Get("blocks").Items()[0];
         return with_blocks(g, {entry, entry});
       },
       "invalid_argument"},
      {"a kept block the worker does not hold",
       [](const JsonValue& g) { return With(g, "row_end", JsonValue(1280)); },
       "failed_precondition"},
      {"kept blocks under an unknown name",
       [](const JsonValue& g) { return With(g, "name", JsonValue("nope")); },
       "not_found"},
  };
  for (const HostileCase& c : cases) {
    std::vector<uint64_t> retired;
    const JsonValue response = service_.LoadDelta(c.mutate(good), &retired);
    EXPECT_FALSE(response.Get("ok").AsBool(true)) << c.what;
    EXPECT_EQ(response.Get("code").AsString(), c.code)
        << c.what << ": " << response.Dump();
    EXPECT_FALSE(response.Get("error").AsString().empty()) << c.what;
    EXPECT_TRUE(retired.empty()) << c.what;
    const auto held = store_.Get("w");
    ASSERT_TRUE(held.has_value()) << c.what;
    EXPECT_EQ(held->fingerprint, held_.fingerprint) << c.what;
    EXPECT_EQ(held->row_begin, 256u) << c.what;
  }

  // The good request keeps block 2 and installs the moved window.
  std::vector<uint64_t> retired;
  const JsonValue moved = service_.LoadDelta(good, &retired);
  ASSERT_TRUE(moved.Get("ok").AsBool(false)) << moved.Dump();
  EXPECT_EQ(moved.Get("applied").AsNumber(), 1.0);
  EXPECT_EQ(moved.Get("row_begin").AsNumber(), 512.0);
  EXPECT_EQ(moved.Get("fingerprint").AsString(),
            wire::FingerprintHex(WindowDigests(digests_, 512, 1024).Combined()));
  EXPECT_EQ(retired, std::vector<uint64_t>{held_.fingerprint});
  ExpectSameDataset(*store_.Get("w")->data, Rows(512, 1024));

  // The tail window ends at the corpus end, mid-block; sending every
  // block needs nothing held.
  const JsonValue tail = service_.LoadDelta(Load({1024, 1500}, {4, 5}),
                                            &retired);
  ASSERT_TRUE(tail.Get("ok").AsBool(false)) << tail.Dump();
  ExpectSameDataset(*store_.Get("w")->data, Rows(1024, 1500));
}

}  // namespace
}  // namespace knnshap
