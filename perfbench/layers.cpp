// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// perfbench_layers — the traced half of the serving benchmark. It replays
// one workload's request stream through an in-process RequestPipeline and
// times the calls into each module from outside:
//
//   json   ParseJson on every line, JsonValue::Dump on every reply.
//   serve  RequestPipeline::HandleSync. Value requests run with
//          "trace":true and "parallel":false (as knnshap_serve's pipelined
//          loop runs them), so the reply's span table splits the engine's
//          reported time into its own deep phases.
//   knn, core, shard
//          direct calls on the replayed queries: ComputeDistances,
//          ArgsortDistances, PartialArgsortDistances,
//          MergeSortedCandidateRuns, the *FromOrder recursions, and a
//          hand-driven candidates fan-out over TCP
//          (wire::BuildCandidatesRequest, the line exchange,
//          wire::ParseCandidatesResponse) whose worker-side compute is
//          timed separately through HandleSync.
//
//   perfbench_layers --requests=FILE --seconds=S [--shard-remote=SPEC]
//
// FILE is the corpus load line followed by request lines, exactly as the
// benchmark sends them to knnshap_serve; the replay stops after S seconds.
// SPEC ("host:port;host:port;...", one worker per shard) routes the
// pipeline through remote shard workers, and the hand-driven fan-out talks
// to them; without it the fan-out talks to this process's own pipeline
// over loopback TCP, four connections standing in for four shards.
//
// Prints one JSON object {"metric": number, ...} on stdout. Self times
// are derived by subtraction: serve = HandleSync - engine total, engine =
// total - (knn + core + shard spans). The "accounting" entries check the
// result: the layers' self times must sum to the replay's wall time, no
// layer may come out negative, and on remote shards the hand-driven
// fan-out must reproduce the router's own fan-out span.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/corrected_knn_shapley.h"
#include "core/exact_knn_shapley.h"
#include "core/lsh_knn_shapley.h"
#include "knn/distance_kernel.h"
#include "knn/selection.h"
#include "serve/pipeline.h"
#include "shard/shard_planner.h"
#include "shard/wire.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/net.h"

using namespace knnshap;

namespace {

using Clock = std::chrono::steady_clock;

// The workload constants the request generator uses (perfbench/workloads.py).
constexpr int kK = 5;
constexpr double kApproxError = 0.01;
constexpr size_t kShards = 4;
constexpr size_t kKeptQueries = 16;    // queries kept for the direct calls
constexpr size_t kFanOutQueries = 8;   // of those, driven through the fan-out

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Milliseconds of one phase in a value reply's trace span table.
double SpanMs(const JsonValue& spans, const char* phase) {
  return spans.Get(phase).Get("seconds").AsNumber() * 1e3;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_layers: %s\n", message.c_str());
  std::exit(1);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// One replayed value query, kept for the direct calls.
struct Query {
  std::vector<float> features;
  int label = 0;
  bool corrected = false;  // exact-corrected rather than exact
  bool truncated = false;  // approx_error > 0
};

// Self time of each layer, in milliseconds.
struct Layers {
  double json = 0, serve = 0, engine = 0, knn = 0, core = 0, shard = 0;

  double Sum() const { return json + serve + engine + knn + core + shard; }
  double Min() const { return std::min({json, serve, engine, knn, core, shard}); }
  void Add(const Layers& o) {
    json += o.json, serve += o.serve, engine += o.engine;
    knn += o.knn, core += o.core, shard += o.shard;
  }
};

struct ReplayResult {
  Layers self;
  double wall_ms = 0;
  double worst_self_pct = 0;  // most negative layer self time / request wall
  double load_parse_ms = 0;
  double parse_ms = 0;
  size_t lines = 0;
  double dump_ms = 0, response_bytes = 0;
  double handle_ms = 0, engine_ms = 0, append_ms = 0;
  size_t values = 0, appends = 0, cache_misses = 0;  // steady state only
  CacheCounters warm_cache;  // engine counters after the warm requests
  uint64_t warm_fit_reuses = 0;
  std::vector<double> fit_ms;  // per steady-state cache miss
  double first_fit_ms = 0;     // request 0's: the cold fit
  std::vector<Query> kept;
};

void KeepQueries(const JsonValue& request, std::vector<Query>* kept) {
  const JsonValue& rows = request.Get("queries");
  const bool corrected = request.Get("method").AsString() == "exact-corrected";
  const bool truncated = request.Has("approx_error");
  for (const JsonValue& row : rows.Items()) {
    if (kept->size() >= kKeptQueries) return;
    Query q;
    const auto& cells = row.Items();
    for (size_t i = 0; i + 1 < cells.size(); ++i) {
      q.features.push_back(static_cast<float>(cells[i].AsNumber()));
    }
    q.label = static_cast<int>(cells.back().AsNumber());
    q.corrected = corrected;
    q.truncated = truncated;
    kept->push_back(std::move(q));
  }
}

ReplayResult Replay(RequestPipeline& pipeline, std::istream& lines,
                    double seconds) {
  ReplayResult out;
  std::string line;
  if (!std::getline(lines, line)) Fail("empty request file");
  {
    const auto t0 = Clock::now();
    JsonParseResult load = ParseJson(line);
    const auto t1 = Clock::now();
    if (!load.ok()) Fail("load line: " + load.error);
    if (!pipeline.HandleSync(load.value).Get("ok").AsBool()) {
      Fail("corpus load failed");
    }
    out.load_parse_ms = MsBetween(t0, t1);
  }
  // The clock starts after the warm requests 0 and 1, which fit (and on
  // remote shards, sync) the workload's parameter sets.
  auto stop = Clock::time_point::max();
  for (size_t j = 0; Clock::now() < stop && std::getline(lines, line); ++j) {
    if (j == 2) {
      stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
      out.warm_cache = pipeline.Engine().CacheStats();
      out.warm_fit_reuses = pipeline.Engine().FitReuses();
    }
    const auto t0 = Clock::now();
    JsonParseResult parsed = ParseJson(line);
    const auto t1 = Clock::now();
    if (!parsed.ok()) Fail("request line: " + parsed.error);
    const bool value = parsed.value.Get("op").AsString() == "value";
    if (value) {
      parsed.value.Set("parallel", JsonValue(false));
      parsed.value.Set("trace", JsonValue(true));
    }
    const auto t2 = Clock::now();
    JsonValue reply = pipeline.HandleSync(parsed.value);
    const auto t3 = Clock::now();
    const std::string text = reply.Dump();
    const auto t4 = Clock::now();
    if (!reply.Get("ok").AsBool()) Fail("request failed: " + text.substr(0, 300));

    const double handle = MsBetween(t2, t3);
    if (j < 2) {
      // Warm requests: their fit is the cold fit (on remote shards, the
      // cold corpus sync); they are set-up, not steady state.
      if (j == 0) out.first_fit_ms = SpanMs(reply.Get("trace").Get("spans"), "fit");
      continue;
    }
    Layers layers;
    layers.json = MsBetween(t0, t1) + MsBetween(t3, t4);
    out.parse_ms += MsBetween(t0, t1);
    out.dump_ms += MsBetween(t3, t4);
    ++out.lines;
    if (value) {
      const JsonValue& trace = reply.Get("trace");
      const JsonValue& spans = trace.Get("spans");
      const double engine = trace.Get("total_seconds").AsNumber() * 1e3;
      layers.knn = SpanMs(spans, "distance") + SpanMs(spans, "sort") +
                   SpanMs(spans, "select") + SpanMs(spans, "retrieve") +
                   SpanMs(spans, "shard_merge");
      layers.core = SpanMs(spans, "recursion");
      layers.shard = SpanMs(spans, "shard_fanout");
      layers.engine = engine - layers.knn - layers.core - layers.shard;
      layers.serve = handle - engine;
      out.handle_ms += handle;
      out.engine_ms += engine;
      out.response_bytes += static_cast<double>(text.size());
      ++out.values;
      if (!trace.Get("cache_hit").AsBool()) {
        ++out.cache_misses;
        out.fit_ms.push_back(SpanMs(spans, "fit"));
        KeepQueries(parsed.value, &out.kept);
      }
    } else {
      layers.serve = handle;
      out.append_ms += handle;
      ++out.appends;
    }
    const double wall = MsBetween(t0, t4);
    out.wall_ms += wall;
    out.self.Add(layers);
    out.worst_self_pct = std::min(out.worst_self_pct, 100.0 * layers.Min() / wall);
  }
  if (out.values < 3 || out.kept.empty()) Fail("replay too short to time");
  return out;
}

struct Micro {
  double distance = 0, sort = 0, select = 0, merge = 0, recursion = 0;
  double sink = 0;  // keeps the recursions' results observable
};

// Direct calls into knn and core on the kept queries; per-query means.
Micro TimeKnnAndCore(const Dataset& train, const std::vector<ShardRange>& plan,
                     const std::vector<Query>& queries) {
  const Matrix& x = train.features;
  const size_t n = train.Size();
  const CorpusNorms norms = NormsForMetric(x, Metric::kL2);
  const size_t r_star = TruncatedExactEffectiveRank(
      static_cast<size_t>(KStar(kK, kApproxError)), n, kK);
  std::vector<double> dists(n);
  std::vector<int> order, prefix, merged, local;
  std::vector<std::vector<int>> runs(plan.size());
  Micro m;
  for (const Query& q : queries) {
    const auto t0 = Clock::now();
    ComputeDistances(x, q.features, Metric::kL2, &norms, dists);
    const auto t1 = Clock::now();
    ArgsortDistances(dists, &order);
    const auto t2 = Clock::now();
    PartialArgsortDistances(dists, r_star, &prefix);
    const auto t3 = Clock::now();
    for (size_t s = 0; s < plan.size(); ++s) {
      const std::span<const double> slice(dists.data() + plan[s].row_begin,
                                          plan[s].Rows());
      PartialArgsortDistances(slice, slice.size(), &local);
      for (int& i : local) i += static_cast<int>(plan[s].row_begin);
      runs[s] = local;
    }
    const auto t4 = Clock::now();
    MergeSortedCandidateRuns(dists, runs, n, &merged);
    const auto t5 = Clock::now();
    std::vector<double> values =
        q.truncated ? TruncatedExactKnnShapleyFromOrder(prefix, train.labels,
                                                        q.label, kK, n)
        : q.corrected
            ? CorrectedKnnShapleyFromOrder(order, train.labels, q.label, kK)
            : ExactKnnShapleyFromOrder(order, train.labels, q.label, kK);
    const auto t6 = Clock::now();
    m.sink += values.front() + static_cast<double>(merged.front());
    m.distance += MsBetween(t0, t1);
    m.sort += MsBetween(t1, t2);
    m.select += MsBetween(t2, t3);
    m.merge += MsBetween(t4, t5);
    m.recursion += MsBetween(t5, t6);
  }
  const double count = static_cast<double>(queries.size());
  m.distance /= count, m.sort /= count, m.select /= count;
  m.merge /= count, m.recursion /= count;
  return m;
}

// Serves `pipeline` to `connections` loopback TCP connections, the way
// knnshap_serve --shard-listen serves its one shared pipeline.
class LoopbackWorker {
 public:
  LoopbackWorker(RequestPipeline& pipeline, size_t connections) {
    std::string error;
    Endpoint any;
    ParseEndpoint("127.0.0.1:0", &any, &error, "127.0.0.1", true);
    listen_fd_ = ListenTcp(any, 16, &error);
    if (listen_fd_ < 0) Fail("listen: " + error);
    endpoint_.host = "127.0.0.1";
    endpoint_.port = BoundPort(listen_fd_);
    acceptor_ = std::thread([this, &pipeline, connections] {
      for (size_t i = 0; i < connections; ++i) {
        const int fd = AcceptTcp(listen_fd_);
        if (fd < 0) return;
        handlers_.emplace_back([fd, &pipeline] {
          FdInBuf in_buf(fd);
          FdOutBuf out_buf(fd);
          std::istream in(&in_buf);
          std::ostream out(&out_buf);
          pipeline.Run(in, out);
          out.flush();
          close(fd);
        });
      }
    });
  }
  ~LoopbackWorker() {
    acceptor_.join();
    for (auto& handler : handlers_) handler.join();
    close(listen_fd_);
  }
  LoopbackWorker(const LoopbackWorker&) = delete;
  LoopbackWorker& operator=(const LoopbackWorker&) = delete;

  const Endpoint& Address() const { return endpoint_; }

 private:
  int listen_fd_ = -1;
  Endpoint endpoint_;
  std::vector<std::thread> handlers_;
  std::thread acceptor_;  // declared last: it fills handlers_
};

// One line-framed connection, read and written the way SocketShardWorker
// does (stdio streams over the socket).
class Connection {
 public:
  explicit Connection(const Endpoint& endpoint) {
    std::string error;
    const int fd = DialTcp(endpoint, 2000, 120000, &error);
    if (fd < 0) Fail("dial " + endpoint.ToString() + ": " + error);
    read_ = fdopen(fd, "r");
    write_ = fdopen(dup(fd), "w");
    if (read_ == nullptr || write_ == nullptr) Fail("fdopen failed");
  }
  ~Connection() {
    std::fclose(write_);
    std::fclose(read_);
    std::free(buf_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string Exchange(const std::string& line) {
    if (std::fputs(line.c_str(), write_) < 0 || std::fputc('\n', write_) == EOF ||
        std::fflush(write_) != 0) {
      Fail("write to shard worker failed");
    }
    ssize_t len = getline(&buf_, &cap_, read_);
    if (len <= 0) Fail("shard worker closed the connection");
    while (len > 0 && (buf_[len - 1] == '\n' || buf_[len - 1] == '\r')) --len;
    return std::string(buf_, static_cast<size_t>(len));
  }

 private:
  std::FILE* read_ = nullptr;
  std::FILE* write_ = nullptr;
  char* buf_ = nullptr;
  size_t cap_ = 0;
};

// The router's own shard_fanout span for one query, valued uncached
// through `pipeline` the way the replay values it.
double RouterFanOutMs(RequestPipeline& pipeline, const Query& q) {
  JsonValue row = JsonValue::MakeArray();
  for (float v : q.features) row.Append(JsonValue(static_cast<double>(v)));
  row.Append(JsonValue(q.label));
  JsonValue queries = JsonValue::MakeArray();
  queries.Append(std::move(row));
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", JsonValue("value"));
  request.Set("train", JsonValue("c"));
  request.Set("queries", std::move(queries));
  request.Set("method", JsonValue(q.corrected ? "exact-corrected" : "exact"));
  request.Set("k", JsonValue(kK));
  if (q.truncated) request.Set("approx_error", JsonValue(kApproxError));
  request.Set("include_values", JsonValue(false));
  request.Set("cache", JsonValue(false));
  request.Set("parallel", JsonValue(false));
  request.Set("trace", JsonValue(true));
  const JsonValue reply = pipeline.HandleSync(request);
  if (!reply.Get("ok").AsBool()) Fail("router value failed: " + reply.Dump());
  return SpanMs(reply.Get("trace").Get("spans"), "shard_fanout");
}

struct FanOut {
  // Per query, summed over the shards.
  double encode = 0, exchange = 0, decode = 0, worker = 0, bytes = 0;
  // Summed over the queries: the router's fan-out span for each query,
  // timed right after this fan-out of the same query (remote shards only).
  double router = 0, measured = 0;
};

// Drives the candidates fan-out by hand for the first kFanOutQueries kept
// queries; the worker-side compute of each request is re-timed in process
// (ParseJson + HandleSync + Dump on `pipeline`, which holds the corpus).
// With `routed`, each query then goes through the pipeline's own router.
FanOut TimeFanOut(RequestPipeline& pipeline, const Dataset& train,
                  const std::vector<ShardRange>& plan,
                  const std::vector<Endpoint>& endpoints,
                  const std::vector<Query>& queries, bool routed) {
  std::vector<std::unique_ptr<Connection>> connections;
  for (const Endpoint& endpoint : endpoints) {
    connections.push_back(std::make_unique<Connection>(endpoint));
  }
  const size_t n = train.Size();
  const size_t r_star = TruncatedExactEffectiveRank(
      static_cast<size_t>(KStar(kK, kApproxError)), n, kK);
  std::vector<double> dists(n);
  std::vector<int> run;
  // One untimed in-process call fills the candidates op's norms cache, as
  // the workers' first candidates request did.
  pipeline.HandleSync(
      wire::BuildCandidatesRequest(plan[0], "c", Metric::kL2,
                                   queries.front().features, r_star));
  FanOut f;
  const size_t count = std::min(queries.size(), kFanOutQueries);
  for (size_t qi = 0; qi < count; ++qi) {
    const Query& q = queries[qi];
    const size_t r = q.truncated ? r_star : n;
    double fanout = 0;
    for (size_t s = 0; s < plan.size(); ++s) {
      const auto t0 = Clock::now();
      const std::string line =
          wire::BuildCandidatesRequest(plan[s], "c", Metric::kL2, q.features, r)
              .Dump();
      const auto t1 = Clock::now();
      const std::string response = connections[s]->Exchange(line);
      const auto t2 = Clock::now();
      const Status status =
          wire::ParseCandidatesResponse(response, plan[s], dists, &run);
      const auto t3 = Clock::now();
      if (!status.ok()) Fail("candidates: " + status.message());
      const JsonParseResult parsed = ParseJson(line);
      const std::string echoed = pipeline.HandleSync(parsed.value).Dump();
      const auto t4 = Clock::now();
      if (echoed != response) Fail("worker reply differs from in-process reply");
      f.encode += MsBetween(t0, t1);
      f.exchange += MsBetween(t1, t2);
      f.decode += MsBetween(t2, t3);
      f.worker += MsBetween(t3, t4);
      f.bytes += static_cast<double>(line.size() + response.size() + 2);
      fanout += MsBetween(t0, t3);
    }
    if (routed) {
      f.router += RouterFanOutMs(pipeline, q);
      f.measured += fanout;
    }
  }
  const double c = static_cast<double>(count);
  f.encode /= c, f.exchange /= c, f.decode /= c, f.worker /= c, f.bytes /= c;
  return f;
}

std::vector<std::vector<std::string>> ParseRemote(const std::string& spec) {
  std::vector<std::vector<std::string>> groups;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t end = std::min(spec.find(';', start), spec.size());
    groups.push_back({spec.substr(start, end - start)});
    start = end + 1;
  }
  return groups;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine args(argc, argv);
  const std::string path = args.GetString("requests", "");
  const double seconds = args.GetDouble("seconds", 5.0);
  const std::string remote = args.GetString("shard-remote", "");
  std::ifstream lines(path);
  if (!lines) Fail("cannot open --requests file '" + path + "'");

  // The same serving configuration as the benchmark's knnshap_serve
  // (--kernel=avx2, observability on), answering inline.
  SetKernelOverride(KernelKind::kAvx2);
  PipelineOptions options;
  options.pipelined = false;
  if (!remote.empty()) {
    options.shard_remote = ParseRemote(remote);
    options.shards = static_cast<int>(options.shard_remote.size());
  }
  RequestPipeline pipeline(options);
  const ReplayResult replay = Replay(pipeline, lines, seconds);

  const auto corpus = pipeline.Store().Get("c");
  const Dataset& train = *corpus->data;
  const std::vector<ShardRange> plan = PlanShards(*corpus->digests, kShards);
  const Micro micro = TimeKnnAndCore(train, plan, replay.kept);

  FanOut fan;
  // A remote router's cold sync is its first fit (dial + digests + load
  // of every worker).
  double sync_s = replay.first_fit_ms / 1e3;
  double append_ms = replay.appends
                         ? replay.append_ms / static_cast<double>(replay.appends)
                         : 0.0;
  {
    std::vector<Endpoint> endpoints;
    std::unique_ptr<LoopbackWorker> loopback;
    if (remote.empty()) {
      // One connection per shard, plus one for the sync below.
      loopback = std::make_unique<LoopbackWorker>(pipeline, plan.size() + 1);
      endpoints.assign(plan.size(), loopback->Address());
    } else {
      for (const auto& group : options.shard_remote) {
        Endpoint endpoint;
        std::string error;
        if (!ParseEndpoint(group[0], &endpoint, &error, "127.0.0.1")) {
          Fail("--shard-remote: " + error);
        }
        endpoints.push_back(endpoint);
      }
    }
    fan = TimeFanOut(pipeline, train, plan, endpoints, replay.kept,
                     !remote.empty());
    if (remote.empty()) {
      // No router sync happened: time a cold sync of one shard's rows to
      // the loopback worker instead (the same inline load, smaller).
      std::vector<int> rows(plan[0].Rows());
      for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
      const Dataset slice = train.Subset(rows);
      Connection connection(endpoints[0]);
      const auto t0 = Clock::now();
      const std::string reply = connection.Exchange(
          wire::BuildInlineLoadRequest("sync", slice).Dump());
      sync_s = MsBetween(t0, Clock::now()) / 1e3;
      if (reply.rfind("{\"ok\":true", 0) != 0) Fail("sync load failed");
    }
  }
  if (replay.appends == 0) {
    // The stream has no appends: time one, of the kept query rows.
    JsonValue append = JsonValue::MakeObject();
    append.Set("op", JsonValue("append"));
    append.Set("name", JsonValue("c"));
    JsonValue rows = JsonValue::MakeArray();
    for (const Query& q : replay.kept) {
      JsonValue row = JsonValue::MakeArray();
      for (float v : q.features) row.Append(JsonValue(static_cast<double>(v)));
      row.Append(JsonValue(q.label));
      rows.Append(std::move(row));
    }
    append.Set("rows", std::move(rows));
    const auto t0 = Clock::now();
    const bool ok = pipeline.HandleSync(append).Get("ok").AsBool();
    append_ms = MsBetween(t0, Clock::now());
    if (!ok) Fail("append failed");
  }

  const CacheCounters cache = pipeline.Engine().CacheStats();
  const double hits = static_cast<double>(cache.hits - replay.warm_cache.hits);
  const double lookups =
      hits + static_cast<double>(cache.misses - replay.warm_cache.misses);
  const double reuses = static_cast<double>(pipeline.Engine().FitReuses() -
                                            replay.warm_fit_reuses);
  const double values = static_cast<double>(replay.values);
  JsonValue out = JsonValue::MakeObject();
  auto put = [&out](const char* name, double v) { out.Set(name, JsonValue(v)); };
  put("json.parse_ms", replay.parse_ms / static_cast<double>(replay.lines));
  put("json.load_parse_ms", replay.load_parse_ms);
  put("json.serialize_ms", replay.dump_ms / static_cast<double>(replay.lines));
  put("json.response_bytes", replay.response_bytes / values);
  put("serve.handle_ms", replay.handle_ms / values);
  put("serve.append_ms", append_ms);
  put("engine.value_ms", replay.engine_ms / values);
  put("engine.fit_ms", replay.first_fit_ms - Median(replay.fit_ms));
  put("engine.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  put("engine.fit_reuse_ratio",
      replay.cache_misses
          ? reuses / static_cast<double>(replay.cache_misses)
          : 0.0);
  put("knn.distance_ms_per_query", micro.distance);
  put("knn.sort_ms_per_query", micro.sort);
  put("knn.select_ms_per_query", micro.select);
  put("knn.merge_ms_per_query", micro.merge);
  put("core.recursion_ms_per_query", micro.recursion);
  put("shard.encode_ms", fan.encode);
  put("shard.decode_ms", fan.decode);
  put("shard.worker_ms_per_query", fan.worker);
  put("shard.wire_ms_per_query", fan.exchange - fan.worker);
  put("shard.candidates_ms_per_query",
      (fan.encode + fan.exchange + fan.decode) / static_cast<double>(kShards));
  put("shard.fanout_ms_per_query", fan.encode + fan.exchange + fan.decode);
  put("shard.wire_bytes_per_query", fan.bytes);
  put("shard.sync_s", sync_s);
  // Self time per layer, per value request, from the replay.
  put("self.json_ms", replay.self.json / values);
  put("self.serve_ms", replay.self.serve / values);
  put("self.engine_ms", replay.self.engine / values);
  put("self.knn_ms", replay.self.knn / values);
  put("self.core_ms", replay.self.core / values);
  put("self.shard_ms", replay.self.shard / values);
  put("accounting.residual_pct",
      100.0 * (replay.wall_ms - replay.self.Sum()) / replay.wall_ms);
  put("accounting.worst_self_pct", replay.worst_self_pct);
  put("accounting.fanout_gap_pct",
      fan.router > 0 ? 100.0 * (fan.measured - fan.router) / fan.router : 0.0);
  std::fprintf(stderr, "perfbench_layers: checksum %.6g\n", micro.sink);
  std::cout << out.Dump() << '\n';
  return 0;
}
