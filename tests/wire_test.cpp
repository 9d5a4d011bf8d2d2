// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Hostile input for the packed-payload decoders (src/shard/wire.h):
// base64, the two forms of `candidates` reply a router reads from a worker
// socket (the top-r run and the full-rank distance column), and the
// packed rows a worker reads in `load`/`load_delta`. Every mutation is
// deterministic (fixed seeds, exhaustive small cases) and must end in a
// structured error, never a crash or a silently accepted payload; CI runs
// this suite under ASan/UBSan with float-cast-overflow. Plus the positive
// side: every encoder's output decodes to the same bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base64_oracle.h"
#include "dataset/dataset.h"
#include "dataset/io.h"
#include "serve/pipeline.h"
#include "shard/shard_planner.h"
#include "shard/wire.h"
#include "util/fingerprint.h"
#include "util/json.h"
#include "util/random.h"
#include "util/status.h"

namespace knnshap {
namespace {

// ---------------------------------------------------------------------------
// Base64.

TEST(Base64Test, RoundTripsEveryLength) {
  Rng rng(11);
  for (size_t n = 0; n <= 64; ++n) {
    std::string bytes(n, '\0');
    for (char& b : bytes) b = static_cast<char>(rng.NextIndex(256));
    const std::string text = wire::EncodeBase64(bytes);
    EXPECT_EQ(text.size() % 4, 0u);
    std::string back;
    ASSERT_TRUE(wire::DecodeBase64(text, &back)) << text;
    EXPECT_EQ(back, bytes);
  }
  EXPECT_EQ(wire::EncodeBase64("foobar"), "Zm9vYmFy");
  EXPECT_EQ(wire::EncodeBase64("fo"), "Zm8=");
  EXPECT_EQ(wire::EncodeBase64("f"), "Zg==");
}

TEST(Base64Test, RejectsNonCanonicalText) {
  std::string bytes;
  for (const char* bad : {"Zm9", "Zm9vY", "Zm=v", "Z===", "====", "Zm9v====",
                          "Zg=A", "Zh==", "Zm9=", "Zm-v", "Zm_v", "Zm v",
                          "Zm9v\n", "Zg==Zm9v", "Zm8=Zm8="}) {
    EXPECT_FALSE(wire::DecodeBase64(bad, &bytes)) << bad;
  }
  // Every byte outside the alphabet, in every position of a quantum.
  for (int c = 0; c < 256; ++c) {
    if (std::isalnum(c) || c == '+' || c == '/') continue;
    for (size_t pos = 0; pos < 4; ++pos) {
      std::string text = "Zm9v";
      text[pos] = static_cast<char>(c);
      if (c == '=' && pos == 3) continue;  // "Zm9=" is checked above
      EXPECT_FALSE(wire::DecodeBase64(text, &bytes)) << c << " at " << pos;
    }
  }
}

// The table codec against the byte-at-a-time one it replaced
// (base64_oracle.h): the same text for every input, and for every text the
// same accept/reject decision and, when accepted, the same bytes.
TEST(Base64Test, MatchesTheOracle) {
  size_t checked = 0, mismatches = 0;
  std::string first_mismatch;
  const auto same_decode = [&](const std::string& text) {
    std::string got, want;
    const bool ok = wire::DecodeBase64(text, &got);
    ++checked;
    if (ok != oracle::DecodeBase64(text, &want) || (ok && got != want)) {
      if (mismatches++ == 0) first_mismatch = text;
    }
  };
  Rng rng(2024);
  for (size_t n = 0; n <= 64; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      std::string bytes(n, '\0');
      for (char& b : bytes) b = static_cast<char>(rng.NextIndex(256));
      const std::string text = wire::EncodeBase64(bytes);
      ASSERT_EQ(text, oracle::EncodeBase64(bytes)) << n;
      same_decode(text);
      // Every single-character mutation of the valid text.
      for (size_t pos = 0; pos < text.size(); ++pos) {
        for (int c = 0; c < 256; ++c) {
          std::string mutated = text;
          mutated[pos] = static_cast<char>(c);
          same_decode(mutated);
        }
      }
    }
    // Random text of every length, mostly alphabet and '=': padding in
    // and out of place, lengths that are not whole quanta.
    static constexpr char kChars[] =
        "AQgw+/=====\x80 -_.AZaz09";
    for (int trial = 0; trial < 400; ++trial) {
      std::string text(n, 'A');
      for (char& c : text) c = kChars[rng.NextIndex(sizeof kChars - 1)];
      same_decode(text);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: '" << first_mismatch << "'";
  EXPECT_GT(checked, 1000000u);
}

// ---------------------------------------------------------------------------
// Candidate runs.

constexpr ShardRange kRange{256, 512, 0};

/// `text` with the character at `pos` replaced by `c`.
std::string WithChar(std::string text, size_t pos, char c) {
  text[pos] = c;
  return text;
}

std::string RunReply(const std::string& run_text) {
  JsonValue reply = JsonValue::MakeObject();
  reply.Set("ok", JsonValue(true));
  reply.Set("run", JsonValue(run_text));
  return reply.Dump();
}

std::string RunReply(const std::vector<int>& indices,
                     const std::vector<double>& distances) {
  return RunReply(wire::PackCandidateRun(indices, distances));
}

/// A valid run of `count` entries inside kRange.
void ValidRun(size_t count, std::vector<int>* indices,
              std::vector<double>* distances) {
  indices->clear();
  distances->clear();
  for (size_t e = 0; e < count; ++e) {
    indices->push_back(static_cast<int>(kRange.row_end - 1 - 3 * e));
    distances->push_back(0.25 * static_cast<double>(e / 2));  // ties in pairs
  }
  // Equal distances break ties by ascending index.
  for (size_t e = 0; e + 1 < count; e += 2) {
    std::swap((*indices)[e], (*indices)[e + 1]);
  }
}

Status Parse(const std::string& line, size_t r, std::vector<int>* run) {
  std::vector<double> dists(kRange.row_end);
  return wire::ParseCandidatesResponse(line, kRange, r, dists, run);
}

TEST(CandidateRunTest, RoundTripsBitExactly) {
  std::vector<int> indices;
  std::vector<double> distances;
  ValidRun(9, &indices, &distances);
  distances.back() = std::nextafter(distances.back(), 1.0);
  std::vector<double> dists(kRange.row_end);
  std::vector<int> run;
  const Status status = wire::ParseCandidatesResponse(
      RunReply(indices, distances), kRange, 9, dists, &run);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(run, indices);
  for (size_t e = 0; e < run.size(); ++e) {
    EXPECT_EQ(std::bit_cast<uint64_t>(dists[static_cast<size_t>(run[e])]),
              std::bit_cast<uint64_t>(distances[e]));
  }
}

TEST(CandidateRunTest, RejectsMalformedRuns) {
  std::vector<int> indices, run;
  std::vector<double> distances;
  ValidRun(6, &indices, &distances);
  const std::string good = wire::PackCandidateRun(indices, distances);
  ASSERT_TRUE(Parse(RunReply(good), 6, &run).ok());

  std::vector<std::string> bad_lines = {
      "", "not json", "[]", R"({"ok":true})", R"({"ok":true,"run":7})",
      R"({"ok":true,"run":["AAAA"]})", RunReply(good + "!"),
      RunReply(good.substr(0, good.size() - 4)),  // 4 bytes short of 6 entries
      RunReply(WithChar(good, 0, '=')),           // padding at the start
      // padding mid-string
      RunReply(good.substr(0, 8) + "==" + good.substr(10)),
      // a byte count that is not a whole number of 12-byte entries
      RunReply(wire::EncodeBase64(std::string(13, '\0'))),
  };
  // Every truncation of a valid line.
  const std::string line = RunReply(good);
  for (size_t cut = 0; cut < line.size(); ++cut) {
    bad_lines.push_back(line.substr(0, cut));
  }
  // Rejected as a dead worker (a reply that is not an ok object reads as
  // a worker error), never as a propagated deadline.
  for (const std::string& bad : bad_lines) {
    const Status status = Parse(bad, 6, &run);
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_NE(status.code(), StatusCode::kDeadlineExceeded) << bad;
    EXPECT_TRUE(run.empty()) << bad;
  }
}

TEST(CandidateRunTest, RejectsOutOfRangeAndOutOfOrderEntries) {
  std::vector<int> indices, run;
  std::vector<double> distances;
  const auto expect_rejected = [&](const char* what, size_t r) {
    const Status status = Parse(RunReply(indices, distances), r, &run);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << what;
    EXPECT_TRUE(run.empty()) << what;
  };
  for (int index : {0, 255, 512, 513, -1, std::numeric_limits<int>::max()}) {
    ValidRun(4, &indices, &distances);
    indices[2] = index;
    expect_rejected("index outside the shard", 4);
  }
  ValidRun(4, &indices, &distances);
  std::swap(distances[0], distances[3]);
  expect_rejected("descending distance", 4);
  ValidRun(4, &indices, &distances);
  std::swap(indices[0], indices[1]);  // a tie, now broken the wrong way
  expect_rejected("descending index within a tie", 4);
  ValidRun(4, &indices, &distances);
  indices[1] = indices[0];
  distances[1] = distances[0];
  expect_rejected("duplicate entry", 4);
  ValidRun(4, &indices, &distances);
  indices[3] = indices[0];
  expect_rejected("duplicate index at a larger distance", 4);
  ValidRun(4, &indices, &distances);
  distances[1] = distances[2] = std::numeric_limits<double>::quiet_NaN();
  indices[2] = indices[1];
  expect_rejected("duplicate index at NaN distances", 4);

  // The run must hold exactly min(r, rows) entries.
  ValidRun(5, &indices, &distances);
  expect_rejected("more entries than r", 4);
  expect_rejected("fewer entries than r", 6);
  EXPECT_TRUE(Parse(RunReply(indices, distances), 5, &run).ok());
  ValidRun(0, &indices, &distances);
  expect_rejected("empty run for r > 0", 1);
  EXPECT_TRUE(Parse(RunReply(indices, distances), 0, &run).ok());
  // The overload without r accepts any length up to the range.
  ValidRun(3, &indices, &distances);
  std::vector<double> dists(kRange.row_end);
  EXPECT_TRUE(wire::ParseCandidatesResponse(RunReply(indices, distances),
                                            kRange, dists, &run)
                  .ok());
}

TEST(CandidateRunTest, NanDistancesDoNotHideADescent) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<int> indices = {300, 301, 302};
  std::vector<int> run;
  EXPECT_TRUE(Parse(RunReply(indices, {0.5, nan, 1.0}), 3, &run).ok());
  EXPECT_EQ(Parse(RunReply(indices, {1.0, nan, 0.5}), 3, &run).code(),
            StatusCode::kInternal);
}

TEST(CandidateRunTest, WorkerErrorsKeepTheirMeaning) {
  std::vector<int> run;
  EXPECT_EQ(Parse(R"({"ok":false,"code":"deadline_exceeded","error":"x"})", 3,
                  &run)
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Parse(R"({"ok":false,"code":"not_found","error":"x"})", 3, &run)
                .code(),
            StatusCode::kUnavailable);
}

TEST(CandidateRunTest, SeededByteFlipsNeverYieldAnInvalidRun) {
  std::vector<int> indices;
  std::vector<double> distances;
  ValidRun(40, &indices, &distances);
  const std::string line = RunReply(indices, distances);
  Rng rng(2026);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string mutated = line;
    const int flips = 1 + static_cast<int>(rng.NextIndex(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextIndex(mutated.size())] =
          static_cast<char>(rng.NextIndex(256));
    }
    std::vector<double> dists(kRange.row_end);
    std::vector<int> run;
    const Status status =
        wire::ParseCandidatesResponse(mutated, kRange, 40, dists, &run);
    if (!status.ok()) {
      EXPECT_TRUE(run.empty());
      continue;
    }
    // Accepted: then it is a run the merge can trust.
    ASSERT_EQ(run.size(), 40u);
    for (size_t e = 0; e < run.size(); ++e) {
      ASSERT_GE(run[e], static_cast<int>(kRange.row_begin));
      ASSERT_LT(run[e], static_cast<int>(kRange.row_end));
      if (e == 0) continue;
      const double a = dists[static_cast<size_t>(run[e - 1])];
      const double b = dists[static_cast<size_t>(run[e])];
      if (std::isnan(a) || std::isnan(b)) continue;
      ASSERT_TRUE(a < b || (a == b && run[e - 1] < run[e])) << mutated;
    }
  }
}

// ---------------------------------------------------------------------------
// Distance columns: the reply to an r that covers the shard's rows.

std::string ColumnReply(const JsonValue& column) {
  JsonValue reply = JsonValue::MakeObject();
  reply.Set("ok", JsonValue(true));
  reply.Set("dists", column);
  return reply.Dump();
}

/// kRange.Rows() seeded distances with exact ties, signed zeros and a NaN.
std::vector<double> ColumnDistances() {
  Rng rng(77);
  std::vector<double> column(kRange.Rows());
  for (double& d : column) d = 0.125 * static_cast<double>(rng.NextIndex(40));
  column[3] = -0.0;
  column[4] = std::numeric_limits<double>::quiet_NaN();
  column[5] = std::nextafter(column[6], 10.0);
  return column;
}

TEST(DistanceColumnTest, FillsTheShardsRowsBitExactly) {
  const std::vector<double> column = ColumnDistances();
  const std::string line =
      ColumnReply(JsonValue(wire::PackDistanceColumn(column)));
  for (size_t r : {kRange.Rows(), kRange.Rows() + 1, size_t{1} << 40,
                   SIZE_MAX}) {
    std::vector<double> dists(kRange.row_end + 8, -1.0);
    std::vector<int> run = {300, 301};
    const Status status =
        wire::ParseCandidatesResponse(line, kRange, r, dists, &run);
    ASSERT_TRUE(status.ok()) << r << ": " << status.message();
    EXPECT_TRUE(run.empty()) << r;
    for (size_t i = 0; i < dists.size(); ++i) {
      const double want = i >= kRange.row_begin && i < kRange.row_end
                              ? column[i - kRange.row_begin]
                              : -1.0;
      ASSERT_EQ(std::bit_cast<uint64_t>(dists[i]),
                std::bit_cast<uint64_t>(want))
          << "row " << i << " at r " << r;
    }
  }
  // The overload without r takes the column as it comes.
  std::vector<double> dists(kRange.row_end);
  std::vector<int> run;
  ASSERT_TRUE(wire::ParseCandidatesResponse(line, kRange, dists, &run).ok());
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(std::bit_cast<uint64_t>(dists[kRange.row_begin + 5]),
            std::bit_cast<uint64_t>(column[5]));
}

TEST(DistanceColumnTest, RejectsMalformedColumnsAndTheWrongForm) {
  const std::vector<double> column = ColumnDistances();
  const std::string good = wire::PackDistanceColumn(column);
  const size_t rows = kRange.Rows();
  std::vector<int> indices;
  std::vector<double> distances;
  ValidRun(5, &indices, &distances);
  const std::string run5 = wire::PackCandidateRun(indices, distances);
  // A valid run of every row of the shard: still the wrong form.
  std::vector<int> all_rows;
  std::vector<double> ascending;
  for (size_t i = 0; i < rows; ++i) {
    all_rows.push_back(static_cast<int>(kRange.row_begin + i));
    ascending.push_back(static_cast<double>(i));
  }
  const std::string full_run = wire::PackCandidateRun(all_rows, ascending);
  const auto both = [&](const std::string& run_text) {
    JsonValue reply = JsonValue::MakeObject();
    reply.Set("ok", JsonValue(true));
    reply.Set("run", JsonValue(run_text));
    reply.Set("dists", JsonValue(good));
    return reply.Dump();
  };
  const auto column_of = [](size_t bytes) {
    return ColumnReply(JsonValue(wire::EncodeBase64(std::string(bytes, 'x'))));
  };

  struct Case {
    const char* what;
    std::string line;
    size_t r;
  };
  const std::vector<Case> cases = {
      {"a column one row short", column_of((rows - 1) * 8), rows},
      {"a column one row long", column_of((rows + 1) * 8), rows},
      {"a column one byte long", column_of(rows * 8 + 1), rows},
      {"a column one byte short", column_of(rows * 8 - 1), rows},
      {"an empty column", ColumnReply(JsonValue("")), rows},
      {"a column outside the alphabet",
       ColumnReply(JsonValue(WithChar(good, 7, '*'))), rows},
      {"a column padded mid-string",
       ColumnReply(JsonValue(WithChar(good, 10, '='))), rows},
      {"a column with a trailing byte", ColumnReply(JsonValue(good + "!")),
       rows},
      {"a column with a trailing quantum",
       ColumnReply(JsonValue(good + "AAAA")), rows},
      {"a column as a number", ColumnReply(JsonValue(1.0)), rows},
      {"a column as an array", ColumnReply(JsonValue::MakeArray()), rows},
      {"a column and a run", both(run5), rows},
      {"a run and a column", both(run5), 5},
      {"neither form", R"({"ok":true})", rows},
      {"neither form below full rank", R"({"ok":true})", 5},
      {"a column for r one below the rows", ColumnReply(JsonValue(good)),
       rows - 1},
      {"a column for r = 0", ColumnReply(JsonValue(good)), 0},
      {"a run for r = rows", RunReply(run5), rows},
      {"a run for r past the rows", RunReply(run5), rows + 44},
      {"a run of every row for r = rows", RunReply(full_run), rows},
  };
  for (const Case& c : cases) {
    std::vector<double> dists(kRange.row_end);
    std::vector<int> run = {300};
    const Status status =
        wire::ParseCandidatesResponse(c.line, kRange, c.r, dists, &run);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << c.what;
    EXPECT_TRUE(run.empty()) << c.what;
  }
  // The overload without r rejects what no r could make valid.
  for (const std::string& line :
       {both(run5), std::string(R"({"ok":true})"), column_of(rows * 8 + 8),
        RunReply(full_run)}) {
    std::vector<double> dists(kRange.row_end);
    std::vector<int> run;
    EXPECT_EQ(wire::ParseCandidatesResponse(line, kRange, dists, &run).code(),
              StatusCode::kInternal)
        << line.substr(0, 60);
  }
}

TEST(DistanceColumnTest, SeededByteFlipsAreRejectedOrFillTheRange) {
  const std::string line =
      ColumnReply(JsonValue(wire::PackDistanceColumn(ColumnDistances())));
  Rng rng(2027);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = line;
    const int flips = 1 + static_cast<int>(rng.NextIndex(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextIndex(mutated.size())] =
          static_cast<char>(rng.NextIndex(256));
    }
    std::vector<double> dists(kRange.row_end + 1, -1.0);
    std::vector<int> run;
    const Status status = wire::ParseCandidatesResponse(
        mutated, kRange, kRange.Rows(), dists, &run);
    EXPECT_TRUE(run.empty());
    if (!status.ok()) {
      EXPECT_NE(status.code(), StatusCode::kDeadlineExceeded) << mutated;
      continue;
    }
    // Accepted: any 8 bytes are a double, but nothing outside the range
    // may have been written.
    for (size_t i = 0; i < kRange.row_begin; ++i) ASSERT_EQ(dists[i], -1.0);
    ASSERT_EQ(dists[kRange.row_end], -1.0);
  }
}

// ---------------------------------------------------------------------------
// Packed rows.

Dataset MakeCorpus(size_t rows, size_t dim, CsvTarget target, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  std::vector<float> row(dim);
  for (size_t i = 0; i < rows; ++i) {
    for (float& f : row) f = static_cast<float>(rng.NextGaussian());
    data.features.AppendRow(row);
    if (target == CsvTarget::kLabel) {
      data.labels.push_back(static_cast<int>(rng.NextIndex(5)) - 1);
    } else if (target == CsvTarget::kTarget) {
      data.targets.push_back(rng.NextGaussian() * 1e-3);
    }
  }
  return data;
}

JsonValue Packed(const Dataset& data) {
  JsonValue payload = JsonValue::MakeObject();
  wire::SetPackedRows(data, 0, data.Size(), &payload);
  return payload;
}

TEST(PackedRowsTest, RoundTripsBitExactly) {
  for (CsvTarget target :
       {CsvTarget::kLabel, CsvTarget::kTarget, CsvTarget::kNone}) {
    const Dataset data = MakeCorpus(37, 5, target, 5);
    Dataset back;
    std::string error;
    ASSERT_TRUE(
        wire::AppendPackedRows(Packed(data), 5, target, 37, &back, &error))
        << error;
    EXPECT_EQ(ComputeCorpusDigests(back).Combined(),
              ComputeCorpusDigests(data).Combined());
    EXPECT_EQ(back.labels, data.labels);
    ASSERT_EQ(back.targets.size(), data.targets.size());
    for (size_t i = 0; i < data.targets.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(back.targets[i]),
                std::bit_cast<uint64_t>(data.targets[i]));
    }
  }
}

TEST(PackedRowsTest, RejectsMismatchedPayloads) {
  const Dataset data = MakeCorpus(8, 3, CsvTarget::kLabel, 6);
  const Dataset targets = MakeCorpus(8, 3, CsvTarget::kTarget, 6);
  const JsonValue good = Packed(data);
  const std::string features = good.Get("features").AsString();
  const std::string labels = good.Get("labels").AsString();

  std::vector<std::pair<const char*, JsonValue>> cases;
  const auto with = [&](const char* what, const char* field, JsonValue value) {
    JsonValue payload = good;
    payload.Set(field, std::move(value));
    cases.emplace_back(what, std::move(payload));
  };
  for (double count : {0.0, -1.0, 7.0, 9.0, 2.5, 1e300, -1e300, 3e9}) {
    with("count", "count", JsonValue(count));
  }
  with("count as text", "count", JsonValue("8"));
  with("features missing", "features", JsonValue());
  with("features as number", "features", JsonValue(1.0));
  with("features short a row",
       "features", JsonValue(wire::EncodeBase64(std::string(7 * 3 * 4, 'x'))));
  with("features one byte long",
       "features",
       JsonValue(wire::EncodeBase64(std::string(8 * 3 * 4 + 1, 'x'))));
  with("features bad alphabet", "features",
       JsonValue(WithChar(features, 0, '*')));
  with("features padded mid-string", "features",
       JsonValue(features.substr(0, 6) + "==" + features.substr(8)));
  with("labels short", "labels",
       JsonValue(wire::EncodeBase64(std::string(7 * 4, '\0'))));
  with("labels bad alphabet", "labels", JsonValue(labels.substr(1) + "."));
  with("labels missing", "labels", JsonValue());
  {
    JsonValue payload = good;
    payload.Set("targets", Packed(targets).Get("targets"));
    cases.emplace_back("a targets column in label mode", std::move(payload));
  }
  // Non-finite feature bits in the last row: rejected before any earlier
  // row is appended.
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    Dataset poisoned = data;
    poisoned.features.At(7, 1) = bad;
    with("non-finite feature bits", "features",
         Packed(poisoned).Get("features"));
  }

  for (const auto& [what, payload] : cases) {
    Dataset out;
    std::string error;
    EXPECT_FALSE(wire::AppendPackedRows(payload, 3, CsvTarget::kLabel, 8, &out,
                                        &error))
        << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_TRUE(out.features.Empty()) << what;
  }
  // The payload's dim must agree with the caller's and with the rows it
  // is appended to.
  Dataset out;
  std::string error;
  const auto append = [&](size_t dim, CsvTarget target, Dataset* to) {
    return wire::AppendPackedRows(good, dim, target, 8, to, &error);
  };
  EXPECT_FALSE(append(4, CsvTarget::kLabel, &out));
  EXPECT_FALSE(append(0, CsvTarget::kLabel, &out));
  EXPECT_FALSE(append(3, CsvTarget::kNone, &out));
  Dataset wider = MakeCorpus(2, 4, CsvTarget::kLabel, 7);
  EXPECT_FALSE(append(3, CsvTarget::kLabel, &wider));
  EXPECT_EQ(wider.Size(), 2u);
}

// The same payloads through the worker's ops: every mutation is a
// structured invalid_argument, and the stored corpus is untouched.
class PackedLoadOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PipelineOptions options;
    options.emit_timing = false;
    pipeline_ = std::make_unique<RequestPipeline>(options);
    corpus_ = MakeCorpus(600, 4, CsvTarget::kLabel, 8);
  }

  JsonValue Load(const JsonValue& payload) {
    JsonValue request = payload;
    request.Set("op", JsonValue("load"));
    request.Set("name", JsonValue("c"));
    request.Set("target", JsonValue("label"));
    if (!payload.Has("dim")) request.Set("dim", JsonValue(4));
    return pipeline_->HandleSync(request);
  }

  std::unique_ptr<RequestPipeline> pipeline_;
  Dataset corpus_;
};

TEST_F(PackedLoadOpTest, PackedLoadMatchesTheJsonRowsLoad) {
  const JsonValue loaded = pipeline_->HandleSync(
      wire::BuildInlineLoadRequest("c", corpus_));
  ASSERT_TRUE(loaded.Get("ok").AsBool(false)) << loaded.Dump();
  EXPECT_EQ(loaded.Get("fingerprint").AsString(),
            wire::FingerprintHex(ComputeCorpusDigests(corpus_).Combined()));
  EXPECT_EQ(loaded.Get("rows").AsNumber(), 600.0);
}

TEST_F(PackedLoadOpTest, MutatedLoadsAreStructuredErrors) {
  const JsonValue good = Packed(corpus_);
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    JsonValue payload = good;
    const char* field = trial % 2 == 0 ? "features" : "labels";
    std::string text = payload.Get(field).AsString();
    switch (trial % 5) {
      case 0:  // a byte outside the alphabet
        text[rng.NextIndex(text.size())] = "!-_. \n\""[rng.NextIndex(7)];
        break;
      case 1:  // padding mid-string
        text[4 * rng.NextIndex(text.size() / 4 - 1) + 2] = '=';
        break;
      case 2:  // a length that is not a whole quantum
        text.resize(text.size() - 1 - rng.NextIndex(3));
        break;
      case 3:  // whole quanta dropped: fewer bytes than count x width
        text.resize(text.size() - 4 * (1 + rng.NextIndex(4)));
        break;
      case 4:  // a count that disagrees with the bytes
        payload.Set("count", JsonValue(600.0 + 1.0 + rng.NextIndex(5)));
        break;
    }
    if (trial % 5 != 4) payload.Set(field, JsonValue(text));
    const JsonValue response = Load(payload);
    ASSERT_FALSE(response.Get("ok").AsBool(true)) << trial;
    EXPECT_EQ(response.Get("code").AsString(), "invalid_argument") << trial;
  }
  EXPECT_FALSE(pipeline_->Store().Get("c").has_value());
  JsonValue bad_dim = good;
  bad_dim.Set("dim", JsonValue(-4));
  EXPECT_EQ(Load(bad_dim).Get("code").AsString(), "invalid_argument");
}

TEST_F(PackedLoadOpTest, MutatedDeltasAreStructuredErrors) {
  ASSERT_TRUE(pipeline_->HandleSync(wire::BuildInlineLoadRequest("c", corpus_))
                  .Get("ok")
                  .AsBool(false));
  const uint64_t before = pipeline_->Store().Get("c")->fingerprint;
  Dataset next = corpus_;
  next.features.MutableRow(300)[1] += 1.0f;
  const CorpusDigests digests = ComputeCorpusDigests(next);
  const JsonValue good =
      wire::BuildDeltaLoadRequest("c", next, digests, {0, 600, 0}, {1});
  const JsonValue& block = good.Get("blocks").Items()[0];

  std::vector<JsonValue> bad_blocks;
  const auto with = [&](const char* field, JsonValue value) {
    JsonValue entry = block;
    entry.Set(field, std::move(value));
    bad_blocks.push_back(std::move(entry));
  };
  with("count", JsonValue(255.0));
  with("count", JsonValue(1e300));
  with("features", JsonValue(block.Get("features").AsString().substr(4)));
  with("features",
       JsonValue(WithChar(block.Get("features").AsString(), 0, '=')));
  with("labels", JsonValue(block.Get("labels").AsString() + "AAAA"));
  with("labels", JsonValue());
  with("block", JsonValue(3.0));
  with("block", JsonValue(-1.0));
  with("block", JsonValue(1e300));
  for (const JsonValue& entry : bad_blocks) {
    JsonValue request = good;
    JsonValue blocks = JsonValue::MakeArray();
    blocks.Append(entry);
    request.Set("blocks", std::move(blocks));
    const JsonValue response = pipeline_->HandleSync(request);
    ASSERT_FALSE(response.Get("ok").AsBool(true)) << entry.Dump().substr(0, 80);
    EXPECT_EQ(response.Get("code").AsString(), "invalid_argument");
    EXPECT_EQ(pipeline_->Store().Get("c")->fingerprint, before);
  }
  const JsonValue applied = pipeline_->HandleSync(good);
  ASSERT_TRUE(applied.Get("ok").AsBool(false)) << applied.Dump();
  EXPECT_EQ(applied.Get("fingerprint").AsString(),
            wire::FingerprintHex(digests.Combined()));
}

}  // namespace
}  // namespace knnshap
