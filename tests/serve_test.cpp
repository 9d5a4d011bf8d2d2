// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// RequestPipeline coverage: ordered pipelined output must be
// byte-identical to the serial loop, unordered mode must answer every
// request, mutations must version corpora and invalidate engine state
// deterministically, the cache must survive a simulated restart, and the
// checked-in golden transcript must reproduce bit for bit (the same
// session/golden pair the CI smoke test pipes through the real binary).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/result_cache.h"
#include "engine/valuators.h"
#include "knn/distance_kernel.h"
#include "serve/pipeline.h"
#include "serve_process.h"
#include "test_util.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace knnshap {
namespace {

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

/// A deterministic mixed-method session: loads, interleaved value traffic
/// over two corpora, mutations (which are pipeline barriers), error
/// requests, repeated requests for cache hits, and a final stats.
std::vector<std::string> MixedSession() {
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(40, 3, 2, 1) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"load","name":"b","rows":)" + RowsJson(25, 3, 3, 2) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"load","name":"q1","rows":)" + RowsJson(4, 3, 2, 3) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"load","name":"q2","rows":)" + RowsJson(3, 3, 3, 4) +
                  R"(,"target":"label"})");
  const char* methods[] = {"exact", "exact-corrected", "truncated", "mc"};
  for (int round = 0; round < 3; ++round) {
    for (const char* method : methods) {
      lines.push_back(std::string(R"({"op":"value","train":"a","test":"q1","method":")") +
                      method + R"(","k":)" + std::to_string(2 + round) + "}");
      lines.push_back(std::string(R"({"op":"value","train":"b","test":"q2","method":")") +
                      method + R"(","k":)" + std::to_string(2 + round) + "}");
    }
  }
  lines.push_back(R"({"op":"value","train":"a","test":"q1","method":"weighted","k":2,"kernel":"inverse"})");
  lines.push_back(R"({"op":"value","train":"missing","test":"q1"})");
  lines.push_back(R"({"op":"value","train":"a","test":"q1","method":"nope"})");
  lines.push_back(R"({"op":"append","name":"a","rows":)" + RowsJson(2, 3, 2, 5) + "}");
  lines.push_back(R"({"op":"value","train":"a","test":"q1","method":"exact","k":3})");
  lines.push_back(R"({"op":"remove","name":"a","row":40})");
  lines.push_back(R"({"op":"value","train":"a","test":"q1","method":"exact","k":3})");
  // Identical repeats, separated by a sync barrier: deterministic hits.
  lines.push_back(R"({"op":"sync"})");
  lines.push_back(R"({"op":"value","train":"a","test":"q1","method":"exact","k":3})");
  lines.push_back(R"({"op":"value","train":"b","test":"q2","method":"exact-corrected","k":2})");
  lines.push_back(R"({"op":"drop","name":"b"})");
  lines.push_back(R"({"op":"stats"})");
  lines.push_back(R"({"op":"quit"})");
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string RunSession(const std::string& input, const PipelineOptions& options) {
  RequestPipeline pipeline(options);
  std::istringstream in(input);
  std::ostringstream out;
  pipeline.Run(in, out);
  return out.str();
}

TEST(ServeTest, OrderedPipelinedOutputIsByteIdenticalToSerial) {
  const std::string input = Join(MixedSession());
  ThreadPool pool(4);

  PipelineOptions serial;
  serial.pipelined = false;
  serial.emit_timing = false;
  const std::string serial_out = RunSession(input, serial);

  PipelineOptions pipelined;
  pipelined.pool = &pool;
  pipelined.emit_timing = false;
  const std::string pipelined_out = RunSession(input, pipelined);

  EXPECT_EQ(serial_out, pipelined_out);
  // Same session again: the transcript is a pure function of the input.
  EXPECT_EQ(pipelined_out, RunSession(input, pipelined));
}

TEST(ServeTest, UnorderedModeAnswersEveryRequest) {
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(30, 3, 2, 1) +
                  R"(,"target":"label"})");
  const int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    lines.push_back(R"({"op":"value","train":"a","queries":)" +
                    RowsJson(2, 3, 2, 100 + static_cast<uint64_t>(i)) +
                    R"(,"method":"exact","k":3,"ordered":false,"id":)" +
                    std::to_string(i) + ",\"include_values\":false}");
  }
  lines.push_back(R"({"op":"quit"})");

  ThreadPool pool(4);
  PipelineOptions options;
  options.pool = &pool;
  options.emit_timing = false;
  const std::string output = RunSession(Join(lines), options);

  std::istringstream parse(output);
  std::string line;
  std::set<int> seen_ids;
  size_t responses = 0;
  while (std::getline(parse, line)) {
    ++responses;
    JsonParseResult parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(parsed.value.Get("ok").AsBool()) << line;
    if (parsed.value.Has("id")) {
      seen_ids.insert(static_cast<int>(parsed.value.Get("id").AsNumber()));
    }
  }
  EXPECT_EQ(responses, lines.size());
  EXPECT_EQ(seen_ids.size(), static_cast<size_t>(kRequests));
}

TEST(ServeTest, MutationsInvalidateAndVersionDeterministically) {
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(20, 3, 2, 1) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"value","train":"a","queries":)" + RowsJson(2, 3, 2, 9) +
                  R"(,"method":"exact","k":3})");
  lines.push_back(R"({"op":"append","name":"a","rows":)" + RowsJson(1, 3, 2, 10) + "}");
  lines.push_back(R"({"op":"stats"})");
  lines.push_back(R"({"op":"drop","name":"a"})");
  lines.push_back(R"({"op":"stats"})");
  lines.push_back(R"({"op":"quit"})");

  ThreadPool pool(4);
  PipelineOptions options;
  options.pool = &pool;
  options.emit_timing = false;
  const std::string output = RunSession(Join(lines), options);

  std::vector<JsonValue> responses;
  std::istringstream parse(output);
  std::string line;
  while (std::getline(parse, line)) {
    JsonParseResult parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    responses.push_back(parsed.value);
  }
  ASSERT_EQ(responses.size(), lines.size());
  EXPECT_EQ(responses[0].Get("version").AsNumber(), 1.0);
  EXPECT_EQ(responses[2].Get("version").AsNumber(), 2.0);
  // After append, the old fingerprint's fitted valuator is gone; nothing
  // has been fitted against the new version yet.
  EXPECT_EQ(responses[3].Get("fitted_valuators").AsNumber(), 0.0);
  // Nothing fitted or cached against version 2, so drop evicts nothing —
  // but the corpus disappears from stats.
  EXPECT_TRUE(responses[4].Get("ok").AsBool());
  EXPECT_EQ(responses[5].Get("datasets").Items().size(), 0u);
}

TEST(ServeTest, CachePersistenceWarmStartsARestart) {
  const std::string cache_path = "serve_test_cache.bin";
  std::remove(cache_path.c_str());
  const std::string corpus = RowsJson(30, 3, 2, 21);
  const std::string queries = RowsJson(3, 3, 2, 22);

  std::vector<std::string> first_session;
  first_session.push_back(R"({"op":"load","name":"a","rows":)" + corpus +
                          R"(,"target":"label"})");
  first_session.push_back(R"({"op":"value","train":"a","queries":)" + queries +
                          R"(,"method":"exact","k":3})");
  first_session.push_back(R"({"op":"save_cache","path":")" + cache_path + R"("})");
  first_session.push_back(R"({"op":"quit"})");

  PipelineOptions options;
  options.emit_timing = false;
  const std::string first_out = RunSession(Join(first_session), options);
  ASSERT_NE(first_out.find("\"entries\":1"), std::string::npos) << first_out;

  // A brand-new pipeline (fresh engine — the restarted process), same
  // corpus contents: the replayed request must hit the reloaded cache.
  std::vector<std::string> second_session;
  second_session.push_back(R"({"op":"load","name":"renamed","rows":)" + corpus +
                           R"(,"target":"label"})");
  second_session.push_back(R"({"op":"load_cache","path":")" + cache_path + R"("})");
  second_session.push_back(R"({"op":"value","train":"renamed","queries":)" + queries +
                           R"(,"method":"exact","k":3})");
  second_session.push_back(R"({"op":"quit"})");
  const std::string second_out = RunSession(Join(second_session), options);

  std::istringstream parse(second_out);
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) {
    responses.push_back(ParseJson(line).value);
  }
  ASSERT_EQ(responses.size(), second_session.size());
  EXPECT_EQ(responses[1].Get("entries").AsNumber(), 1.0);
  EXPECT_TRUE(responses[2].Get("cache_hit").AsBool()) << second_out;

  // Corrupt file: load_cache reports an error response, engine unharmed.
  std::ofstream(cache_path, std::ios::trunc) << "not a cache";
  RequestPipeline pipeline(options);
  JsonParseResult bad = ParseJson(R"({"op":"load_cache","path":")" + cache_path + R"("})");
  JsonValue response = pipeline.HandleSync(bad.value);
  EXPECT_FALSE(response.Get("ok").AsBool());
  std::remove(cache_path.c_str());
}

TEST(ServeTest, MalformedRequestsAnswerErrorsNotAborts) {
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  auto handle = [&](const std::string& line) {
    JsonParseResult parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return pipeline.HandleSync(parsed.value);
  };
  handle(R"({"op":"load","name":"a","rows":)" + RowsJson(10, 3, 2, 1) +
         R"(,"target":"label"})");
  // Core algorithms guard hyperparameters with fatal checks; the serve
  // layer must convert every such case into an error response.
  EXPECT_FALSE(handle(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"k":0})")
                   .Get("ok")
                   .AsBool());
  EXPECT_FALSE(
      handle(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"k":2.5})")
          .Get("ok")
          .AsBool());
  EXPECT_FALSE(
      handle(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"epsilon":0})")
          .Get("ok")
          .AsBool());
  EXPECT_FALSE(handle(R"({"op":"remove","name":"a","row":2.9})").Get("ok").AsBool());
  EXPECT_FALSE(handle(R"({"op":"remove","name":"a","row":1e300})").Get("ok").AsBool());
  // A label no int can hold is a structured error, not an out-of-range cast.
  JsonValue huge_label =
      handle(R"({"op":"load","name":"b","rows":[[1,1e300]],"target":"label"})");
  EXPECT_FALSE(huge_label.Get("ok").AsBool());
  EXPECT_EQ(huge_label.Get("code").AsString(), "invalid_argument");
  // So is a feature the parser reads as inf (1e999), in a corpus or in
  // inline queries: NaN distances have no (distance, index) order.
  JsonValue inf_feature = handle(
      R"({"op":"load","name":"c","rows":[[1e999,0,1],[0,0,0]],"target":"label"})");
  EXPECT_FALSE(inf_feature.Get("ok").AsBool());
  EXPECT_EQ(inf_feature.Get("code").AsString(), "invalid_argument");
  JsonValue inf_query = handle(
      R"({"op":"value","train":"a","queries":[[0.1,1e999,0.3,1]],"k":3})");
  EXPECT_FALSE(inf_query.Get("ok").AsBool());
  EXPECT_EQ(inf_query.Get("code").AsString(), "invalid_argument");
  // The store is intact and a well-formed request still works.
  JsonValue good =
      handle(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"k":3})");
  EXPECT_TRUE(good.Get("ok").AsBool()) << good.Dump();
}

TEST(ServeTest, ExplicitParallelRunsInlineWithIdenticalValues) {
  const std::string corpus = RowsJson(40, 3, 2, 31);
  const std::string queries = RowsJson(6, 3, 2, 32);
  auto session = [&](const std::string& extra) {
    return R"({"op":"load","name":"a","rows":)" + corpus + R"(,"target":"label"})" +
           "\n" + R"({"op":"value","train":"a","queries":)" + queries +
           R"(,"method":"exact","k":3)" + extra + "}\n" + R"({"op":"quit"})" + "\n";
  };
  ThreadPool pool(4);
  PipelineOptions options;
  options.pool = &pool;
  options.emit_timing = false;
  // Dispatched (default) and inline-sharded ("parallel":true) must answer
  // byte-identically — the engine's bitwise contract seen end to end.
  EXPECT_EQ(RunSession(session(""), options),
            RunSession(session(R"(,"parallel":true)"), options));
}

TEST(ServeTest, DescribeListsEveryMethodWithTypedParams) {
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);

  JsonValue response = pipeline.HandleSync(ParseJson(R"({"op":"describe"})").value);
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  const auto& methods = response.Get("methods").Items();
  ASSERT_EQ(methods.size(), ValuatorRegistry::Global().Methods().size());
  for (const auto& method : methods) {
    EXPECT_FALSE(method.Get("name").AsString().empty());
    EXPECT_TRUE(method.Get("tasks").IsArray());
    EXPECT_TRUE(method.Has("per_query"));
    EXPECT_TRUE(method.Has("requires"));
    ASSERT_TRUE(method.Get("params").IsArray()) << method.Dump();
    for (const auto& param : method.Get("params").Items()) {
      EXPECT_TRUE(param.Has("name"));
      EXPECT_TRUE(param.Has("type"));
      EXPECT_TRUE(param.Has("default"));
    }
  }

  // Single-method filter and its not-found error.
  JsonValue one = pipeline.HandleSync(
      ParseJson(R"({"op":"describe","method":"mc"})").value);
  ASSERT_TRUE(one.Get("ok").AsBool());
  ASSERT_EQ(one.Get("methods").Items().size(), 1u);
  EXPECT_FALSE(one.Get("methods").Items()[0].Get("per_query").AsBool());
  JsonValue missing = pipeline.HandleSync(
      ParseJson(R"({"op":"describe","method":"nope"})").value);
  EXPECT_FALSE(missing.Get("ok").AsBool());
  EXPECT_EQ(missing.Get("code").AsString(), "not_found");
}

// `protocol` answers the version, the kernel and the op table's names,
// sorted; every listed op dispatches and no other name does.
TEST(ServeTest, ProtocolListsExactlyTheDispatchedOps) {
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);

  const JsonValue reply =
      pipeline.HandleSync(ParseJson(R"({"op":"protocol"})").value);
  EXPECT_EQ(reply.Dump(),
            R"({"ok":true,"protocol":5,"kernel":")" +
                std::string(KernelName(ActiveKernel())) +
                R"(","ops":["append","candidates",)"
            R"("describe","digests","drop","load","load_cache","load_delta",)"
            R"("methods","metrics","ping","protocol","quit","remove",)"
            R"("save_cache","stats","sync","value"]})");
  std::vector<std::string> ops;
  for (const JsonValue& op : reply.Get("ops").Items()) {
    ops.push_back(op.AsString());
  }
  EXPECT_TRUE(std::is_sorted(ops.begin(), ops.end()));
  const auto unknown = [&](const std::string& op) {
    JsonValue request = JsonValue::MakeObject();
    request.Set("op", JsonValue(op));
    return pipeline.HandleSync(request).Get("error").AsString() ==
           "unknown op '" + op + "'";
  };
  for (const std::string& op : ops) EXPECT_FALSE(unknown(op)) << op;
  for (const char* op : {"", "bogus", "Value", "load-delta", "valu", "values"}) {
    EXPECT_TRUE(unknown(op)) << op;
  }
}

TEST(ServeTest, StructuredErrorsNameCodeAndField) {
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  auto handle = [&](const std::string& line) {
    return pipeline.HandleSync(ParseJson(line).value);
  };
  handle(R"({"op":"load","name":"a","rows":)" + RowsJson(12, 3, 2, 41) +
         R"(,"target":"label"})");

  JsonValue bad_k = handle(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"k":0})");
  EXPECT_FALSE(bad_k.Get("ok").AsBool());
  EXPECT_EQ(bad_k.Get("code").AsString(), "invalid_argument");
  EXPECT_EQ(bad_k.Get("field").AsString(), "k");

  JsonValue bad_eps = handle(
      R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"method":"truncated","epsilon":-2})");
  EXPECT_EQ(bad_eps.Get("field").AsString(), "epsilon");
  EXPECT_EQ(bad_eps.Get("error").AsString(), "'epsilon' must be > 0 (got -2)");

  // A typo'd field is named, with the request id echoed for correlation.
  JsonValue typo = handle(
      R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"epsilonn":0.5,"id":9})");
  EXPECT_FALSE(typo.Get("ok").AsBool());
  EXPECT_EQ(typo.Get("field").AsString(), "epsilonn");
  EXPECT_EQ(typo.Get("id").AsNumber(), 9.0);

  // Unknown method / dataset are not_found.
  EXPECT_EQ(handle(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"method":"nope"})")
                .Get("code")
                .AsString(),
            "not_found");
  EXPECT_EQ(handle(R"({"op":"value","train":"missing","queries":[[0.1,0.2,0.3,1]]})")
                .Get("code")
                .AsString(),
            "not_found");

  // A disallowed task for the method names the task field — including on
  // single-task methods, where an explicit conflicting task must error,
  // not silently coerce to the method's own task.
  JsonValue bad_task = handle(
      R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"method":"weighted","task":"classification"})");
  EXPECT_FALSE(bad_task.Get("ok").AsBool());
  EXPECT_EQ(bad_task.Get("field").AsString(), "task");
  JsonValue coerced = handle(
      R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"method":"exact","task":"regression"})");
  EXPECT_FALSE(coerced.Get("ok").AsBool());
  EXPECT_EQ(coerced.Get("field").AsString(), "task");
  EXPECT_NE(coerced.Get("error").AsString().find("supports tasks: classification"),
            std::string::npos);

  // A method whose schema demands a larger corpus answers a precondition
  // error — the request must never reach the adapter's fatal internal
  // check and kill the server.
  handle(R"({"op":"load","name":"tiny","rows":[[0.1,0.2,1]],"target":"label"})");
  JsonValue tiny_lsh = handle(
      R"({"op":"value","train":"tiny","queries":[[0.1,0.2,1]],"method":"lsh"})");
  EXPECT_FALSE(tiny_lsh.Get("ok").AsBool());
  EXPECT_EQ(tiny_lsh.Get("code").AsString(), "failed_precondition");
  EXPECT_NE(tiny_lsh.Get("error").AsString().find("at least 2"),
            std::string::npos);
}

// Theorem 6 needs N >= K+1: a regression request with k at least the
// corpus size is a field error on k, and the pipeline keeps serving.
TEST(ServeTest, RegressionWithKAtCorpusSizeIsAFieldErrorNotAnAbort) {
  PipelineOptions options;
  options.emit_timing = false;
  const std::string out = RunSession(
      Join({R"({"op":"load","name":"c","rows":[[0.1,0.2,1.5],[0.4,0.3,2.5],[0.9,0.7,0.5]],"target":"target"})",
            R"({"op":"load","name":"q","rows":[[0.2,0.2,1.0]],"target":"target"})",
            R"({"op":"value","train":"c","test":"q","method":"regression","k":3})",
            R"({"op":"value","train":"c","test":"q","method":"regression","k":2})"}),
      options);
  std::vector<JsonValue> replies;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    replies.push_back(ParseJson(line).value);
  }
  ASSERT_EQ(replies.size(), 4u) << out;
  const JsonValue& refused = replies[2];
  EXPECT_FALSE(refused.Get("ok").AsBool(true)) << out;
  EXPECT_EQ(refused.Get("code").AsString(), "invalid_argument");
  EXPECT_EQ(refused.Get("field").AsString(), "k");
  const JsonValue& valued = replies[3];
  EXPECT_TRUE(valued.Get("ok").AsBool(false)) << out;
  EXPECT_EQ(valued.Get("values").Items().size(), 3u) << out;
}

TEST(ServeTest, InlineRowsValidationMessagesArePinned) {
  // The exact bytes of every inline-rows error, for each op that reads
  // rows: load and append take `rows`, value takes `queries` and names it.
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  auto handle = [&](const std::string& line) {
    return pipeline.HandleSync(ParseJson(line).value);
  };
  ASSERT_TRUE(handle(R"({"op":"load","name":"a","rows":)" + RowsJson(12, 3, 2, 43) +
                     R"(,"target":"label"})")
                  .Get("ok")
                  .AsBool());

  const std::pair<const char*, const char*> cases[] = {
      {"5", "'rows' must be a non-empty array of rows"},
      {"[]", "'rows' must be a non-empty array of rows"},
      {"[[0.1,0.2,0.3,1],5]", "each row must be a non-empty array of numbers"},
      {"[[]]", "each row must be a non-empty array of numbers"},
      {"[[1]]", "row has no feature columns"},
      {R"([["x",0.2,0.3,1]])", "non-numeric feature cell"},
      {"[[1e300,0.2,0.3,1]]", "feature cell must be a finite number in float range"},
      {"[[0.1,0.2,0.3,1],[0.1,0.2,1]]", "inconsistent row arity"},
      {R"([[0.1,0.2,0.3,"x"]])", "non-numeric label/target cell"},
      {"[[0.1,0.2,0.3,1e12]]", "label cell must be a finite number in int range"},
  };
  for (const auto& [rows, message] : cases) {
    const JsonValue load = handle(R"({"op":"load","name":"b","rows":)" +
                                  std::string(rows) + R"(,"target":"label"})");
    EXPECT_FALSE(load.Get("ok").AsBool(true)) << rows;
    EXPECT_EQ(load.Get("code").AsString(), "invalid_argument") << rows;
    EXPECT_EQ(load.Get("error").AsString(), std::string("load: ") + message);

    const JsonValue append =
        handle(R"({"op":"append","name":"a","rows":)" + std::string(rows) + "}");
    EXPECT_FALSE(append.Get("ok").AsBool(true)) << rows;
    EXPECT_EQ(append.Get("code").AsString(), "invalid_argument") << rows;
    EXPECT_EQ(append.Get("error").AsString(), std::string("append: ") + message);

    const JsonValue value = handle(R"({"op":"value","train":"a","queries":)" +
                                   std::string(rows) + "}");
    EXPECT_FALSE(value.Get("ok").AsBool(true)) << rows;
    EXPECT_EQ(value.Get("code").AsString(), "invalid_argument") << rows;
    EXPECT_EQ(value.Get("error").AsString(), std::string("value: ") + message);
    EXPECT_EQ(value.Get("field").AsString(), "queries") << rows;
  }
  // No failed request left a corpus behind or changed one.
  EXPECT_FALSE(pipeline.Store().Get("b").has_value());
  EXPECT_EQ(pipeline.Store().Get("a")->data->Size(), 12u);
}

TEST(ServeTest, PipelineHonorsACustomEngineRegistry) {
  // Validation, methods and describe must resolve against the registry
  // the *engine* serves from, not the global one — a pipeline wired to a
  // private registry would otherwise reject its own methods at parse time.
  ValuatorRegistry registry;
  RegisterBuiltinValuators(&registry);
  MethodSchema schema;
  schema.name = "custom-exact";
  schema.description = "private-registry test double";
  schema.params = ResolveParams({"k", "metric"});
  schema.tasks = {KnnTask::kClassification};
  registry.Register(schema, [](const ValuatorParams& params) {
    return std::make_unique<ExactValuator>(params);
  });

  PipelineOptions options;
  options.emit_timing = false;
  options.engine.registry = &registry;
  RequestPipeline pipeline(options);
  auto handle = [&](const std::string& line) {
    return pipeline.HandleSync(ParseJson(line).value);
  };
  handle(R"({"op":"load","name":"a","rows":)" + RowsJson(15, 3, 2, 61) +
         R"(,"target":"label"})");
  JsonValue value = handle(
      R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"method":"custom-exact","k":3})");
  EXPECT_TRUE(value.Get("ok").AsBool()) << value.Dump();
  EXPECT_EQ(value.Get("method").AsString(), "custom-exact");
  JsonValue described = handle(R"({"op":"describe","method":"custom-exact"})");
  EXPECT_TRUE(described.Get("ok").AsBool()) << described.Dump();
}

TEST(ServeTest, UndeclaredSeedChangeHitsTheCacheThroughServe) {
  // End-to-end scoped-fingerprint payoff: the same exact request with a
  // different seed (undeclared by exact) is served from the cache, and
  // the params echo shows exactly the declared fields that keyed it.
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  auto handle = [&](const std::string& line) {
    return pipeline.HandleSync(ParseJson(line).value);
  };
  handle(R"({"op":"load","name":"a","rows":)" + RowsJson(20, 3, 2, 51) +
         R"(,"target":"label"})");
  const std::string queries = RowsJson(2, 3, 2, 52);
  JsonValue first =
      handle(R"({"op":"value","train":"a","queries":)" + queries + R"(,"k":3})");
  ASSERT_TRUE(first.Get("ok").AsBool()) << first.Dump();
  EXPECT_FALSE(first.Get("cache_hit").AsBool());
  JsonValue second = handle(R"({"op":"value","train":"a","queries":)" + queries +
                            R"(,"k":3,"seed":4242})");
  ASSERT_TRUE(second.Get("ok").AsBool()) << second.Dump();
  EXPECT_TRUE(second.Get("cache_hit").AsBool());
  EXPECT_EQ(first.Get("params").Dump(), second.Get("params").Dump());
  EXPECT_FALSE(second.Get("params").Has("seed"));  // undeclared for exact
  EXPECT_EQ(first.Get("values").Dump(), second.Get("values").Dump());
}

// ---------------------------------------------------------------------------
// Observability: traces, metrics, slow log
// ---------------------------------------------------------------------------

std::string DumpWithoutTrace(const JsonValue& response) {
  JsonValue out = JsonValue::MakeObject();
  for (const auto& [key, value] : response.Fields()) {
    if (key != "trace") out.Set(key, value);
  }
  return out.Dump();
}

TEST(ServeTest, TracedValuesAreByteIdenticalToUntraced) {
  // Instrumentation observes, never reorders: {"trace":true} may only add
  // the "trace" field — every other response byte is unchanged.
  PipelineOptions options;
  options.emit_timing = false;
  const std::string load = R"({"op":"load","name":"a","rows":)" +
                           RowsJson(30, 4, 2, 71) + R"(,"target":"label"})";
  const std::string queries = RowsJson(3, 4, 2, 72);

  RequestPipeline untraced_pipeline(options);
  untraced_pipeline.HandleSync(ParseJson(load).value);
  JsonValue untraced = untraced_pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"a","queries":)" + queries +
                R"(,"method":"exact","k":3})")
          .value);
  ASSERT_TRUE(untraced.Get("ok").AsBool()) << untraced.Dump();
  ASSERT_FALSE(untraced.Has("trace"));

  RequestPipeline traced_pipeline(options);
  traced_pipeline.HandleSync(ParseJson(load).value);
  JsonValue traced = traced_pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"a","queries":)" + queries +
                R"(,"method":"exact","k":3,"trace":true})")
          .value);
  ASSERT_TRUE(traced.Get("ok").AsBool()) << traced.Dump();
  ASSERT_TRUE(traced.Has("trace"));
  EXPECT_EQ(DumpWithoutTrace(traced), untraced.Dump());

  // Masked form (emit_timing off): span name -> count only, and no
  // serve-layer spans (those differ between the serial and pipelined
  // loops, which must stay byte-identical).
  const JsonValue& spans = traced.Get("trace").Get("spans");
  EXPECT_TRUE(spans.Has("validate"));
  EXPECT_TRUE(spans.Has("fit"));
  EXPECT_TRUE(spans.Has("value"));
  EXPECT_TRUE(spans.Has("distance"));
  EXPECT_TRUE(spans.Has("recursion"));
  EXPECT_FALSE(spans.Has("parse"));
  EXPECT_FALSE(spans.Has("serialize"));
  EXPECT_FALSE(spans.Has("queue_wait"));
  EXPECT_FALSE(traced.Get("trace").Has("total_seconds"));
}

TEST(ServeTest, TraceSpansSumToReportedSeconds) {
  // The accounting must balance: on a compute-heavy request the
  // non-overlapping engine phases cover the reported wall time within 5%.
  // 20000 rows keep the engine phases well above the fixed per-request
  // work outside them.
  PipelineOptions options;  // emit_timing on
  RequestPipeline pipeline(options);
  pipeline.HandleSync(
      ParseJson(R"({"op":"load","name":"big","rows":)" +
                RowsJson(20000, 16, 2, 81) + R"(,"target":"label"})")
          .value);
  JsonValue response = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"big","queries":)" +
                RowsJson(8, 16, 2, 82) +
                R"(,"method":"exact","k":5,"trace":true,"parallel":false,)" +
                R"("include_values":false})")
          .value);
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  const double seconds = response.Get("seconds").AsNumber();
  ASSERT_GT(seconds, 0.0);
  const JsonValue& trace = response.Get("trace");
  EXPECT_DOUBLE_EQ(trace.Get("total_seconds").AsNumber(), seconds);
  const JsonValue& spans = trace.Get("spans");
  auto span_seconds = [&](const char* name) {
    return spans.Has(name) ? spans.Get(name).Get("seconds").AsNumber() : 0.0;
  };
  // Top-level phases, mutually exclusive in ValueImpl. "finalize" also has
  // a nested occurrence inside "value" (valuator finalize), negligible for
  // exact; the dominant terms are fit + value.
  const double top_level = span_seconds("validate") +
                           span_seconds("fingerprint") +
                           span_seconds("cache_probe") + span_seconds("fit") +
                           span_seconds("value") + span_seconds("finalize") +
                           span_seconds("cache_store");
  EXPECT_GE(top_level, 0.95 * seconds)
      << "unaccounted request time; trace: " << trace.Dump();
  EXPECT_LE(top_level, 1.05 * seconds)
      << "double-counted request time; trace: " << trace.Dump();
  // Deep spans (per-query kernels) must carry most of the value phase.
  const double deep = span_seconds("distance") + span_seconds("sort") +
                      span_seconds("recursion");
  EXPECT_GE(deep, 0.3 * span_seconds("value")) << trace.Dump();
  EXPECT_GT(spans.Get("distance").Get("count").AsNumber(), 0.0);
}

TEST(ServeTest, MetricsOpExposesHistogramsAndSpanNames) {
  PipelineOptions options;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"a","rows":)" +
                                RowsJson(25, 3, 2, 91) +
                                R"(,"target":"label"})")
                          .value);
  const std::string queries = RowsJson(2, 3, 2, 92);
  for (int i = 0; i < 3; ++i) {
    JsonValue response = pipeline.HandleSync(
        ParseJson(R"({"op":"value","train":"a","queries":)" + queries +
                  R"(,"method":"exact","k":3})")
            .value);
    ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  }
  JsonValue metrics = pipeline.HandleSync(ParseJson(R"({"op":"metrics"})").value);
  ASSERT_TRUE(metrics.Get("ok").AsBool()) << metrics.Dump();
  const std::string& text = metrics.Get("text").AsString();
  EXPECT_NE(text.find("knnshap_requests_total{method=\"exact\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("knnshap_request_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("knnshap_phase_nanos_total{phase=\"fit\"}"),
            std::string::npos);
  EXPECT_NE(text.find("knnshap_phase_nanos_total{phase=\"value\"}"),
            std::string::npos);
  EXPECT_NE(text.find("knnshap_result_cache_entries"), std::string::npos);

  // The stats op carries the same registry as a structured section.
  JsonValue stats = pipeline.HandleSync(ParseJson(R"({"op":"stats"})").value);
  ASSERT_TRUE(stats.Get("ok").AsBool());
  const JsonValue& section = stats.Get("metrics");
  EXPECT_DOUBLE_EQ(section.Get("requests").Get("exact").AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(section.Get("in_flight").AsNumber(), 0.0);
  const JsonValue& latency = section.Get("latency").Get("exact");
  EXPECT_DOUBLE_EQ(latency.Get("count").AsNumber(), 3.0);
  EXPECT_LE(latency.Get("p50").AsNumber(), latency.Get("p95").AsNumber());
  EXPECT_LE(latency.Get("p95").AsNumber(), latency.Get("p99").AsNumber());
  EXPECT_LE(latency.Get("p99").AsNumber(), latency.Get("max").AsNumber());
  EXPECT_GT(section.Get("phase_seconds").Get("value").AsNumber(), 0.0);
}

TEST(ServeTest, MetricsOpErrorsWhenObservabilityIsOff) {
  PipelineOptions options;
  options.observability = false;
  RequestPipeline pipeline(options);
  EXPECT_EQ(pipeline.Metrics(), nullptr);
  JsonValue metrics = pipeline.HandleSync(ParseJson(R"({"op":"metrics"})").value);
  EXPECT_FALSE(metrics.Get("ok").AsBool());
  EXPECT_EQ(metrics.Get("code").AsString(), "failed_precondition");
  // stats still answers, just without the metrics section.
  JsonValue stats = pipeline.HandleSync(ParseJson(R"({"op":"stats"})").value);
  EXPECT_TRUE(stats.Get("ok").AsBool());
  EXPECT_FALSE(stats.Has("metrics"));
}

TEST(ServeTest, StatsReportsCacheBytesAndPerCorpusFittedCounts) {
  PipelineOptions options;
  options.emit_timing = false;
  options.engine.result_cache_capacity = 8;
  RequestPipeline pipeline(options);
  auto handle = [&](const std::string& line) {
    return pipeline.HandleSync(ParseJson(line).value);
  };
  handle(R"({"op":"load","name":"a","rows":)" + RowsJson(20, 3, 2, 95) +
         R"(,"target":"label"})");
  handle(R"({"op":"load","name":"b","rows":)" + RowsJson(15, 3, 2, 96) +
         R"(,"target":"label"})");
  const std::string queries = RowsJson(2, 3, 2, 97);
  ASSERT_TRUE(handle(R"({"op":"value","train":"a","queries":)" + queries +
                     R"(,"method":"exact","k":3})")
                  .Get("ok")
                  .AsBool());
  ASSERT_TRUE(handle(R"({"op":"value","train":"a","queries":)" + queries +
                     R"(,"method":"truncated","k":3,"epsilon":0.2})")
                  .Get("ok")
                  .AsBool());

  JsonValue stats = handle(R"({"op":"stats"})");
  ASSERT_TRUE(stats.Get("ok").AsBool()) << stats.Dump();
  const JsonValue& cache = stats.Get("cache");
  EXPECT_DOUBLE_EQ(cache.Get("entries").AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(cache.Get("capacity").AsNumber(), 8.0);
  EXPECT_GT(cache.Get("bytes").AsNumber(), 0.0);
  for (const auto& dataset : stats.Get("datasets").Items()) {
    const double fitted = dataset.Get("fitted").AsNumber();
    if (dataset.Get("name").AsString() == "a") {
      EXPECT_DOUBLE_EQ(fitted, 2.0) << stats.Dump();  // exact + truncated
    } else {
      EXPECT_DOUBLE_EQ(fitted, 0.0) << stats.Dump();  // never valued
    }
  }
}

TEST(ServeTest, SlowLogEmitsOneLinePerOffendingRequest) {
  std::ostringstream slow_log;
  PipelineOptions options;
  options.slow_ms = 1e-6;  // everything is slow
  options.slow_log = &slow_log;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"a","rows":)" +
                                RowsJson(25, 3, 2, 98) +
                                R"(,"target":"label"})")
                          .value);
  JsonValue response = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"a","queries":)" +
                RowsJson(2, 3, 2, 99) + R"(,"method":"exact","k":3,"id":"s1"})")
          .value);
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  // The slow-log threshold forces deep tracing but does NOT echo it.
  EXPECT_FALSE(response.Has("trace"));

  std::istringstream lines(slow_log.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line)) << "no slow-log line emitted";
  JsonParseResult parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_TRUE(parsed.value.Get("slow_request").AsBool());
  EXPECT_EQ(parsed.value.Get("id").AsString(), "s1");
  EXPECT_EQ(parsed.value.Get("method").AsString(), "exact");
  EXPECT_GT(parsed.value.Get("seconds").AsNumber(), 0.0);
  const JsonValue& spans = parsed.value.Get("trace").Get("spans");
  EXPECT_TRUE(spans.Has("fit"));
  EXPECT_TRUE(spans.Has("distance"));  // threshold forced deep spans
  EXPECT_GT(spans.Get("value").Get("seconds").AsNumber(), 0.0);
  EXPECT_FALSE(std::getline(lines, line)) << "more than one line: " << line;
}

TEST(ServeTest, TraceAllTracesEveryValueResponse) {
  PipelineOptions options;
  options.emit_timing = false;
  options.trace_all = true;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"a","rows":)" +
                                RowsJson(20, 3, 2, 101) +
                                R"(,"target":"label"})")
                          .value);
  JsonValue response = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"a","queries":)" +
                RowsJson(2, 3, 2, 102) + R"(,"method":"exact","k":3})")
          .value);
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  EXPECT_TRUE(response.Has("trace"));
  EXPECT_TRUE(response.Get("trace").Get("spans").Has("distance"));
}

// ---------------------------------------------------------------------------
// Robustness: deadlines, shedding, line limits, snapshots, salvage.
// ---------------------------------------------------------------------------

TEST(ServeTest, DeadlineZeroIsDeterministicAcrossSerialAndPipelined) {
  // "deadline_ms":0 is an already-expired deadline checked before the
  // cache probe: the response is deadline_exceeded on every machine, so
  // it can interleave with ok traffic in a byte-stable transcript.
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(25, 3, 2, 61) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"value","train":"a","queries":)" +
                  RowsJson(2, 3, 2, 62) + R"(,"method":"exact","k":3})");
  lines.push_back(R"({"op":"value","train":"a","queries":)" +
                  RowsJson(2, 3, 2, 62) +
                  R"(,"method":"exact","k":3,"deadline_ms":0,"id":"dl"})");
  lines.push_back(R"({"op":"value","train":"a","queries":)" +
                  RowsJson(2, 3, 2, 62) + R"(,"method":"exact","k":3})");
  lines.push_back(R"({"op":"quit"})");
  const std::string input = Join(lines);

  ThreadPool pool(4);
  PipelineOptions serial;
  serial.pipelined = false;
  serial.emit_timing = false;
  PipelineOptions pipelined;
  pipelined.pool = &pool;
  pipelined.emit_timing = false;
  const std::string serial_out = RunSession(input, serial);
  EXPECT_EQ(serial_out, RunSession(input, pipelined));

  std::istringstream parse(serial_out);
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) responses.push_back(ParseJson(line).value);
  ASSERT_EQ(responses.size(), lines.size());
  EXPECT_TRUE(responses[1].Get("ok").AsBool());
  EXPECT_FALSE(responses[2].Get("ok").AsBool());
  EXPECT_EQ(responses[2].Get("code").AsString(), "deadline_exceeded");
  EXPECT_EQ(responses[2].Get("id").AsString(), "dl");
  // The expired request poisons nothing: its identical successor is fine
  // (and still a cache hit from the first run — the deadline check runs
  // before the probe, so nothing partial was ever cached).
  EXPECT_TRUE(responses[3].Get("ok").AsBool());
  EXPECT_TRUE(responses[3].Get("cache_hit").AsBool());
}

TEST(ServeTest, PipelinedTwinsRunInOrderAndHitTheCache) {
  // Identical value requests with no barrier between them: each twin
  // waits for the one before it, so only the first computes and every
  // later one is a cache hit, whatever the thread timing.
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(2000, 8, 2, 91) +
                  R"(,"target":"label"})");
  for (int i = 0; i < 8; ++i) {
    lines.push_back(R"({"op":"value","train":"a","queries":)" +
                    RowsJson(4, 8, 2, 92) + R"(,"method":"exact","k":3})");
  }
  ThreadPool pool(4);
  PipelineOptions options;
  options.pool = &pool;
  options.emit_timing = false;
  std::istringstream parse(RunSession(Join(lines), options));
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) responses.push_back(ParseJson(line).value);
  ASSERT_EQ(responses.size(), lines.size());
  EXPECT_FALSE(responses[1].Get("cache_hit").AsBool());
  for (size_t i = 2; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].Get("ok").AsBool()) << i;
    EXPECT_TRUE(responses[i].Get("cache_hit").AsBool()) << i;
  }
}

TEST(ServeTest, DeadlineErrorEchoesThePartialTrace) {
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"a","rows":)" +
                                RowsJson(20, 3, 2, 63) +
                                R"(,"target":"label"})")
                          .value);
  JsonValue response = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"a","queries":)" +
                RowsJson(2, 3, 2, 64) +
                R"(,"method":"exact","k":3,"deadline_ms":0,"trace":true})")
          .value);
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("code").AsString(), "deadline_exceeded");
  // The phases that ran before the deadline fired come back with the
  // error — for deadline_ms:0 that is exactly the validate span.
  ASSERT_TRUE(response.Has("trace")) << response.Dump();
  EXPECT_TRUE(response.Get("trace").Get("spans").Has("validate"));
}

TEST(ServeTest, TightDeadlineOnLargeCorpusAnswersPromptly) {
  // The acceptance pin: a 1 ms deadline on a corpus whose valuation takes
  // far longer must come back deadline_exceeded promptly (block-granular
  // polling bounds the overshoot), and a concurrent normal request on the
  // same pipeline completes untouched.
  // 20000 rows keep the uncancelled valuation (~50 ms) far above 1 ms.
  const std::string corpus = RowsJson(20000, 8, 2, 65);
  const std::string queries = RowsJson(16, 8, 2, 66);
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"big","rows":)" +
                                corpus + R"(,"target":"label"})")
                          .value);

  // Uncancelled baseline (also warms the fit, isolating the value loop).
  JsonValue baseline = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"big","queries":)" + queries +
                R"(,"method":"exact","k":5,"cache":false})")
          .value);
  ASSERT_TRUE(baseline.Get("ok").AsBool()) << baseline.Dump();

  const auto start = std::chrono::steady_clock::now();
  JsonValue expired = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"big","queries":)" + queries +
                R"(,"method":"exact","k":5,"cache":false,"deadline_ms":1})")
          .value);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(expired.Get("ok").AsBool()) << expired.Dump();
  EXPECT_EQ(expired.Get("code").AsString(), "deadline_exceeded");
  // Pinned latency bound: generous enough for a loaded CI box, far below
  // the uncancelled runtime of a 20000x16 valuation on one thread.
  EXPECT_LT(elapsed, 2.0);

  // The same request without a deadline still completes normally.
  JsonValue after = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"big","queries":)" + queries +
                R"(,"method":"exact","k":5,"cache":false})")
          .value);
  EXPECT_TRUE(after.Get("ok").AsBool()) << after.Dump();
}

TEST(ServeTest, InvalidDeadlineIsAStructuredFieldError) {
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"a","rows":)" +
                                RowsJson(10, 3, 2, 67) +
                                R"(,"target":"label"})")
                          .value);
  for (const char* bad : {R"("soon")", "-1", "2.5"}) {
    JsonValue response = pipeline.HandleSync(
        ParseJson(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],)"
                  R"("deadline_ms":)" +
                  std::string(bad) + "}")
            .value);
    EXPECT_FALSE(response.Get("ok").AsBool()) << bad;
    EXPECT_EQ(response.Get("code").AsString(), "invalid_argument") << bad;
    EXPECT_EQ(response.Get("field").AsString(), "deadline_ms") << bad;
  }
}

TEST(ServeTest, FarDeadlineStillAnswers) {
  // 1e13 ms passes the validator; it must not overflow the token's clock
  // arithmetic into an already-passed deadline.
  PipelineOptions options;
  options.emit_timing = false;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"a","rows":)" +
                                RowsJson(10, 3, 2, 67) +
                                R"(,"target":"label"})")
                          .value);
  JsonValue response = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],)"
                R"("deadline_ms":10000000000000})")
          .value);
  EXPECT_TRUE(response.Get("ok").AsBool()) << response.Dump();
}

TEST(ServeTest, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  PipelineOptions options;
  options.emit_timing = false;
  options.default_deadline_ms = 1;
  RequestPipeline pipeline(options);
  pipeline.HandleSync(ParseJson(R"({"op":"load","name":"big","rows":)" +
                                RowsJson(20000, 8, 2, 68) +
                                R"(,"target":"label"})")
                          .value);
  JsonValue response = pipeline.HandleSync(
      ParseJson(R"({"op":"value","train":"big","queries":)" +
                RowsJson(16, 8, 2, 69) + R"(,"method":"exact","k":5})")
          .value);
  // 1 ms covers neither the fit nor the first distance block of a
  // 20000-row corpus: the server-wide default deadline fires.
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("code").AsString(), "deadline_exceeded");
}

TEST(ServeTest, ShedModeIsByteStableAcrossSerialAndPipelined) {
  // max_queue=0 sheds every value request in both loops (the serial loop
  // never has anything in flight, so 0 is the one deterministic setting):
  // shed responses interleaved with control-plane ok responses must be
  // byte-identical serial vs pipelined.
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(15, 3, 2, 71) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"id":"v1"})");
  lines.push_back(R"({"op":"ping"})");
  lines.push_back(R"({"op":"value","train":"a","queries":[[0.4,0.5,0.6,0]],"id":"v2"})");
  lines.push_back(R"({"op":"stats"})");
  lines.push_back(R"({"op":"quit"})");
  const std::string input = Join(lines);

  ThreadPool pool(4);
  PipelineOptions serial;
  serial.pipelined = false;
  serial.emit_timing = false;
  serial.max_queue = 0;
  PipelineOptions pipelined;
  pipelined.pool = &pool;
  pipelined.emit_timing = false;
  pipelined.max_queue = 0;
  const std::string serial_out = RunSession(input, serial);
  EXPECT_EQ(serial_out, RunSession(input, pipelined));

  std::istringstream parse(serial_out);
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) responses.push_back(ParseJson(line).value);
  ASSERT_EQ(responses.size(), lines.size());
  for (int i : {1, 3}) {
    EXPECT_FALSE(responses[i].Get("ok").AsBool()) << i;
    EXPECT_EQ(responses[i].Get("code").AsString(), "unavailable") << i;
    EXPECT_EQ(responses[i].Get("retry_after_ms").AsNumber(), 100.0) << i;
  }
  EXPECT_EQ(responses[1].Get("id").AsString(), "v1");
  EXPECT_EQ(responses[3].Get("id").AsString(), "v2");
  // The stats barrier sees both sheds in the server section.
  EXPECT_EQ(responses[4].Get("server").Get("shed_total").AsNumber(), 2.0);
  EXPECT_EQ(responses[4].Get("server").Get("queue_depth").AsNumber(), 0.0);
}

TEST(ServeTest, OverloadShedsInsteadOfBlockingTheReader) {
  // Real backpressure shedding: a one-thread pool wedged by a directly
  // submitted blocker, max_queue=1. The first value occupies the window;
  // the second arrives over-limit and is shed on the reader thread. The
  // blocker is released only after the shed proves the reader never
  // blocked behind the wedged pool.
  ThreadPool pool(1);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  PipelineOptions options;
  options.pool = &pool;
  options.emit_timing = false;
  options.max_queue = 1;
  RequestPipeline pipeline(options);

  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(15, 3, 2, 72) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"id":"runs"})");
  lines.push_back(R"({"op":"value","train":"a","queries":[[0.4,0.5,0.6,0]],"id":"shed"})");
  lines.push_back(R"({"op":"quit"})");
  std::istringstream in(Join(lines));
  std::ostringstream out;
  std::thread server([&] { pipeline.Run(in, out); });
  // The reader sheds the second value without waiting for the pool; once
  // the shed lands, open the gate so the first value (and quit's drain)
  // can finish.
  while (pipeline.ShedCount() == 0) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  server.join();

  std::istringstream parse(out.str());
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) responses.push_back(ParseJson(line).value);
  ASSERT_EQ(responses.size(), lines.size());
  EXPECT_TRUE(responses[1].Get("ok").AsBool());
  EXPECT_EQ(responses[1].Get("id").AsString(), "runs");
  EXPECT_FALSE(responses[2].Get("ok").AsBool());
  EXPECT_EQ(responses[2].Get("code").AsString(), "unavailable");
  EXPECT_EQ(responses[2].Get("id").AsString(), "shed");
  EXPECT_EQ(pipeline.ShedCount(), 1u);
}

TEST(ServeTest, OversizedLinesAreRejectedDeterministically) {
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(10, 3, 2, 73) +
                  R"(,"target":"label"})");
  // A huge (syntactically valid) request line: rejected before parsing.
  std::string big = R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"id":")";
  big += std::string(200'000, 'x');
  big += R"("})";
  lines.push_back(big);
  lines.push_back(R"({"op":"ping"})");
  lines.push_back(R"({"op":"quit"})");
  const std::string input = Join(lines);

  ThreadPool pool(2);
  PipelineOptions serial;
  serial.pipelined = false;
  serial.emit_timing = false;
  serial.max_line_bytes = 64 * 1024;
  PipelineOptions pipelined = serial;
  pipelined.pipelined = true;
  pipelined.pool = &pool;
  const std::string serial_out = RunSession(input, serial);
  EXPECT_EQ(serial_out, RunSession(input, pipelined));

  std::istringstream parse(serial_out);
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) responses.push_back(ParseJson(line).value);
  ASSERT_EQ(responses.size(), lines.size());
  EXPECT_FALSE(responses[1].Get("ok").AsBool());
  EXPECT_EQ(responses[1].Get("code").AsString(), "invalid_argument");
  EXPECT_TRUE(responses[2].Get("ok").AsBool());  // loop keeps serving
}

TEST(ServeTest, PeriodicSnapshotsAndFinalFlushPersistTheCache) {
  const std::string snap_path = "serve_test_snapshot.bin";
  std::remove(snap_path.c_str());
  PipelineOptions options;
  options.emit_timing = false;
  options.snapshot_path = snap_path;
  options.snapshot_every = 2;

  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(20, 3, 2, 74) +
                  R"(,"target":"label"})");
  for (int i = 0; i < 3; ++i) {
    lines.push_back(R"({"op":"value","train":"a","queries":)" +
                    RowsJson(2, 3, 2, 75 + static_cast<uint64_t>(i)) +
                    R"(,"method":"exact","k":3})");
  }
  lines.push_back(R"({"op":"quit"})");
  RunSession(Join(lines), options);

  // The exit flush (and the periodic snapshot before it) persisted all
  // three results: a fresh cache warm-starts from the file.
  ResultCache restored(8);
  StatusOr<CacheLoadResult> loaded = restored.LoadFrom(snap_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().entries, 3u);
  EXPECT_FALSE(loaded.value().salvaged);
  std::remove(snap_path.c_str());
}

TEST(ServeTest, SnapshotFailuresAreCountedNeverFatal) {
  const std::string snap_path = "serve_test_snapfail.bin";
  std::remove(snap_path.c_str());
  PipelineOptions options;
  options.emit_timing = false;
  options.snapshot_path = snap_path;
  options.snapshot_every = 1;
  ASSERT_TRUE(FaultRegistry::Global().Configure("snapshot:after=0"));

  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(15, 3, 2, 78) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"value","train":"a","queries":[[0.1,0.2,0.3,1]],"k":3})");
  lines.push_back(R"({"op":"stats"})");
  lines.push_back(R"({"op":"quit"})");
  RequestPipeline pipeline(options);
  std::istringstream in(Join(lines));
  std::ostringstream out;
  pipeline.Run(in, out);
  FaultRegistry::Global().Reset();

  // Serving continued; the failures were counted (periodic + exit flush)
  // and surfaced in stats; no snapshot file was produced.
  EXPECT_GE(pipeline.SnapshotFailures(), 2u);
  std::istringstream parse(out.str());
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) responses.push_back(ParseJson(line).value);
  ASSERT_EQ(responses.size(), lines.size());
  EXPECT_TRUE(responses[1].Get("ok").AsBool());
  EXPECT_GE(responses[2].Get("server").Get("snapshot_failures").AsNumber(), 1.0);
  std::ifstream snap(snap_path, std::ios::binary);
  EXPECT_FALSE(snap.good());
}

TEST(ServeTest, LoadCacheSalvagesTornSnapshotsThroughServe) {
  const std::string cache_path = "serve_test_salvage.bin";
  std::remove(cache_path.c_str());
  PipelineOptions options;
  options.emit_timing = false;

  // Build a two-entry cache file through the serve surface.
  std::vector<std::string> lines;
  lines.push_back(R"({"op":"load","name":"a","rows":)" + RowsJson(20, 3, 2, 81) +
                  R"(,"target":"label"})");
  lines.push_back(R"({"op":"value","train":"a","queries":)" +
                  RowsJson(2, 3, 2, 82) + R"(,"method":"exact","k":3})");
  lines.push_back(R"({"op":"value","train":"a","queries":)" +
                  RowsJson(2, 3, 2, 83) + R"(,"method":"exact","k":4})");
  lines.push_back(R"({"op":"save_cache","path":")" + cache_path + R"("})");
  lines.push_back(R"({"op":"quit"})");
  RunSession(Join(lines), options);

  // Tear off the tail (simulated crash mid-write of a *non-atomic*
  // producer, or torn tmp file picked up after a kill).
  std::ifstream in_file(cache_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in_file)),
                    std::istreambuf_iterator<char>());
  in_file.close();
  ASSERT_GT(bytes.size(), 30u);
  std::ofstream(cache_path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));

  RequestPipeline fresh(options);
  JsonValue response = fresh.HandleSync(
      ParseJson(R"({"op":"load_cache","path":")" + cache_path + R"("})").value);
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  EXPECT_EQ(response.Get("entries").AsNumber(), 1.0);
  EXPECT_TRUE(response.Get("salvaged").AsBool());
  EXPECT_NE(response.Get("warning").AsString().find("salvaged 1 of 2"),
            std::string::npos)
      << response.Dump();
  std::remove(cache_path.c_str());
}

TEST(ServeTest, KillMidSaveThenRestartRecoversThePriorSnapshot) {
  // The acceptance flow end to end: a good snapshot exists; a later save
  // is killed mid-write by fault injection; the "restarted" server
  // load_caches the same path and recovers the prior snapshot intact.
  const std::string cache_path = "serve_test_killsave.bin";
  std::remove(cache_path.c_str());
  PipelineOptions options;
  options.emit_timing = false;

  {
    RequestPipeline pipeline(options);
    auto handle = [&](const std::string& line) {
      return pipeline.HandleSync(ParseJson(line).value);
    };
    handle(R"({"op":"load","name":"a","rows":)" + RowsJson(20, 3, 2, 84) +
           R"(,"target":"label"})");
    handle(R"({"op":"value","train":"a","queries":)" + RowsJson(2, 3, 2, 85) +
           R"(,"method":"exact","k":3})");
    JsonValue saved =
        handle(R"({"op":"save_cache","path":")" + cache_path + R"("})");
    ASSERT_TRUE(saved.Get("ok").AsBool()) << saved.Dump();

    // Second save dies mid-write: the response is a structured data_loss
    // error and the on-disk snapshot is untouched.
    handle(R"({"op":"value","train":"a","queries":)" + RowsJson(2, 3, 2, 86) +
           R"(,"method":"exact","k":4})");
    ASSERT_TRUE(FaultRegistry::Global().Configure("cache_write:after=1"));
    JsonValue crashed =
        handle(R"({"op":"save_cache","path":")" + cache_path + R"("})");
    FaultRegistry::Global().Reset();
    EXPECT_FALSE(crashed.Get("ok").AsBool());
    EXPECT_EQ(crashed.Get("code").AsString(), "data_loss");
  }

  RequestPipeline restarted(options);
  JsonValue recovered = restarted.HandleSync(
      ParseJson(R"({"op":"load_cache","path":")" + cache_path + R"("})").value);
  ASSERT_TRUE(recovered.Get("ok").AsBool()) << recovered.Dump();
  EXPECT_EQ(recovered.Get("entries").AsNumber(), 1.0);
  EXPECT_FALSE(recovered.Has("salvaged"));
  std::remove(cache_path.c_str());
  std::remove((cache_path + ".tmp").c_str());
}

TEST(ServeTest, GracefulShutdownFlagStopsTheLoopAndFlushes) {
  const std::string snap_path = "serve_test_shutdown.bin";
  std::remove(snap_path.c_str());
  std::atomic<bool> shutdown{false};
  PipelineOptions options;
  options.emit_timing = false;
  options.snapshot_path = snap_path;
  options.shutdown = &shutdown;
  RequestPipeline pipeline(options);

  // The flag is already up: the loop must not read a single request, but
  // still runs its exit path (drain + snapshot flush).
  shutdown.store(true);
  std::istringstream in(R"({"op":"ping"})" "\n");
  std::ostringstream out;
  const size_t served = pipeline.Run(in, out);
  EXPECT_EQ(served, 0u);
  EXPECT_TRUE(out.str().empty());
  std::ifstream snap(snap_path, std::ios::binary);
  EXPECT_TRUE(snap.good());  // exit flush wrote (an empty) snapshot
  std::remove(snap_path.c_str());
}

#ifdef KNNSHAP_SERVE_BINARY
using testing_util::ReadLine;
using testing_util::ServeProcess;
using testing_util::SpawnServe;

TEST(ServeTest, SigtermEndsABlockedStdinReadAndFlushesTheSnapshot) {
  const std::string snap_path = "serve_test_sigterm.bin";
  std::remove(snap_path.c_str());
  ServeProcess server = SpawnServe(
      KNNSHAP_SERVE_BINARY, {"--no-timing", "--snapshot=" + snap_path});
  ASSERT_GT(server.pid, 0);
  const std::string requests =
      R"({"op":"load","name":"a","rows":)" + RowsJson(20, 3, 2, 81) +
      R"(,"target":"label"})" "\n" R"({"op":"value","train":"a","queries":)" +
      RowsJson(2, 3, 2, 82) + R"(,"method":"exact","k":3})" "\n";
  ASSERT_EQ(write(server.to_server, requests.data(), requests.size()),
            static_cast<ssize_t>(requests.size()));
  EXPECT_NE(ReadLine(server.from_server, 10000).find(R"("ok":true)"),
            std::string::npos);
  EXPECT_NE(ReadLine(server.from_server, 10000).find(R"("ok":true)"),
            std::string::npos);

  // Both replies are out and stdin stays open: the server is idle, blocked
  // reading fd 0. SIGTERM must end that read, not wait for another line.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(kill(server.pid, SIGTERM), 0);
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(server.pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (done == 0) {
    kill(server.pid, SIGKILL);
    waitpid(server.pid, &status, 0);
  }
  close(server.to_server);
  close(server.from_server);
  ASSERT_EQ(done, server.pid) << "server still blocked on stdin after SIGTERM";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_LT(seconds, 5.0);

  ResultCache restored(8);
  StatusOr<CacheLoadResult> loaded = restored.LoadFrom(snap_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().entries, 1u);
  std::remove(snap_path.c_str());
}
#endif  // KNNSHAP_SERVE_BINARY

TEST(ServeTest, DeeplyNestedLineIsAParseErrorAndServingContinues) {
  // 100 KB of '[' used to overflow the parser's stack and kill the server.
  const std::string input = std::string(100'000, '[') + "\n" +
                            R"({"op":"ping"})" "\n";
  PipelineOptions options;
  options.emit_timing = false;
  std::istringstream parse(RunSession(input, options));
  std::string line;
  std::vector<JsonValue> responses;
  while (std::getline(parse, line)) responses.push_back(ParseJson(line).value);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].Get("ok").AsBool());
  EXPECT_EQ(responses[0].Get("code").AsString(), "invalid_argument");
  EXPECT_NE(responses[0].Get("error").AsString().find("nesting"),
            std::string::npos)
      << responses[0].Dump();
  EXPECT_TRUE(responses[1].Get("ok").AsBool());
}

TEST(ServeTest, StatsServerSectionReportsRobustnessCounters) {
  PipelineOptions options;
  RequestPipeline pipeline(options);  // timing ON: uptime present
  JsonValue stats = pipeline.HandleSync(ParseJson(R"({"op":"stats"})").value);
  ASSERT_TRUE(stats.Get("ok").AsBool());
  const JsonValue& server = stats.Get("server");
  ASSERT_TRUE(server.IsObject()) << stats.Dump();
  EXPECT_GE(server.Get("uptime_seconds").AsNumber(), 0.0);
  EXPECT_EQ(server.Get("queue_depth").AsNumber(), 0.0);
  EXPECT_EQ(server.Get("shed_total").AsNumber(), 0.0);
  EXPECT_EQ(server.Get("deadline_exceeded_total").AsNumber(), 0.0);
  EXPECT_EQ(server.Get("snapshots_taken").AsNumber(), 0.0);
  EXPECT_EQ(server.Get("snapshot_failures").AsNumber(), 0.0);

  PipelineOptions untimed;
  untimed.emit_timing = false;
  RequestPipeline masked(untimed);
  JsonValue masked_stats =
      masked.HandleSync(ParseJson(R"({"op":"stats"})").value);
  // Byte-determinism: no wall-clock value under --no-timing.
  EXPECT_FALSE(masked_stats.Get("server").Has("uptime_seconds"));
}

TEST(ServeTest, GoldenTranscriptReproduces) {
  // The same session/golden pair CI pipes through the knnshap_serve
  // binary. Reference kernel pinned: value bytes must not depend on the
  // CI job's KNNSHAP_KERNEL forcing.
  const std::string dir = KNNSHAP_TEST_DATA_DIR;
  std::ifstream session_file(dir + "/serve_session.jsonl");
  std::ifstream golden_file(dir + "/serve_golden.jsonl");
  ASSERT_TRUE(session_file.good() && golden_file.good());
  std::stringstream session, golden;
  session << session_file.rdbuf();
  golden << golden_file.rdbuf();

  SetKernelOverride(KernelKind::kReference);
  ThreadPool pool(4);
  PipelineOptions options;
  options.pool = &pool;
  options.emit_timing = false;
  const std::string output = RunSession(session.str(), options);
  SetKernelOverride(KernelKind::kAuto);
  EXPECT_EQ(output, golden.str());
}

}  // namespace
}  // namespace knnshap
