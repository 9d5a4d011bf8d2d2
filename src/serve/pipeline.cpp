// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "serve/pipeline.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <iostream>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataset/io.h"
#include "engine/registry.h"
#include "engine/result_cache.h"
#include "engine/schema.h"
#include "market/valuation_report.h"
#include "obs/trace.h"
#include "shard/shard_planner.h"
#include "shard/wire.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/line_reader.h"
#include "util/status.h"

namespace knnshap {

namespace {

/// retry_after_ms on shed and unavailable responses. A constant, not a
/// latency estimate, so those responses are byte-deterministic.
constexpr double kRetryAfterMs = 100;

using wire::ErrorResponse;
using wire::OkResponse;

JsonValue NotFoundResponse(const std::string& message) {
  return ErrorResponse(Status::NotFound(message));
}

/// Client ops answer on whole corpora only. A shard worker's window holds
/// some rows of a router's corpus under that corpus's name; valuing or
/// mutating it as though it were the corpus would answer wrongly.
Status WindowRefusal(const std::string& what, const std::string& name,
                     const CorpusSnapshot& window) {
  return Status::FailedPrecondition(
      what + " '" + name + "' is a shard window, rows [" +
      std::to_string(window.row_begin) + ", " +
      std::to_string(window.row_begin + window.data->Size()) +
      ") of a router's corpus, not a whole corpus");
}

JsonValue CountersJson(const CacheCounters& counters) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("hits", JsonValue(static_cast<double>(counters.hits)));
  out.Set("misses", JsonValue(static_cast<double>(counters.misses)));
  out.Set("evictions", JsonValue(static_cast<double>(counters.evictions)));
  return out;
}

/// Extracts a label value from an inline-labeled instrument name, e.g.
/// `knnshap_requests_total{method="exact"}` -> "exact"; empty when absent.
std::string ExtractLabel(const std::string& name, const std::string& label) {
  const std::string needle = label + "=\"";
  const size_t start = name.find(needle);
  if (start == std::string::npos) return "";
  const size_t value_start = start + needle.size();
  const size_t end = name.find('"', value_start);
  if (end == std::string::npos) return "";
  return name.substr(value_start, end - value_start);
}

/// The response/slow-log "trace" object. Timed form: per-span seconds and
/// counts plus queue/total. Masked form (emit_timing off — golden
/// transcripts): span names and counts only, and only the engine-recorded
/// phases — parse/serialize/queue_wait are serve-layer spans whose
/// presence differs between the serial and pipelined loops, and the two
/// must stay byte-identical.
JsonValue TraceJson(const ValuationReport& report, bool timed) {
  const RequestTrace& trace = *report.trace;
  JsonValue out = JsonValue::MakeObject();
  out.Set("kernel", JsonValue(trace.kernel));
  out.Set("cache_hit", JsonValue(trace.cache_hit));
  out.Set("fit_reused", JsonValue(trace.fit_reused));
  if (timed) {
    out.Set("total_seconds", JsonValue(report.seconds));
    out.Set("queue_seconds", JsonValue(report.queue_seconds));
  }
  JsonValue spans = JsonValue::MakeObject();
  for (size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const uint64_t count = trace.SpanCount(phase);
    if (count == 0) continue;
    if (!timed && (phase == Phase::kParse || phase == Phase::kSerialize ||
                   phase == Phase::kQueueWait)) {
      continue;
    }
    if (timed) {
      JsonValue span = JsonValue::MakeObject();
      span.Set("seconds", JsonValue(trace.Seconds(phase)));
      span.Set("count", JsonValue(static_cast<double>(count)));
      spans.Set(PhaseName(phase), std::move(span));
    } else {
      spans.Set(PhaseName(phase), JsonValue(static_cast<double>(count)));
    }
  }
  out.Set("spans", std::move(spans));
  return out;
}

bool FromInlineRows(const JsonValue& rows, CsvTarget target, Dataset* data,
                    std::string* error) {
  const std::vector<JsonValue>& items = rows.Items();
  if (items.empty()) {
    *error = "'rows' must be a non-empty array of rows";
    return false;
  }
  std::vector<float> features;  // one row, reused
  for (const JsonValue& row : items) {
    const std::vector<JsonValue>& cells = row.Items();
    if (cells.empty()) {
      *error = "each row must be a non-empty array of numbers";
      return false;
    }
    const size_t arity = cells.size();
    const size_t num_features = target == CsvTarget::kNone ? arity : arity - 1;
    if (num_features == 0) {
      *error = "row has no feature columns";
      return false;
    }
    if (data->features.Empty()) {
      // Reserve once, from the first row's arity, bounded by the cells
      // the tree holds: a line of short rows cannot reserve more than it
      // carries.
      size_t total_cells = 0;
      for (const JsonValue& r : items) total_cells += r.Items().size();
      const size_t reserve_rows = std::min(items.size(), total_cells / num_features);
      data->features.Reserve(reserve_rows, num_features);
      if (target == CsvTarget::kLabel) data->labels.reserve(reserve_rows);
      if (target == CsvTarget::kTarget) data->targets.reserve(reserve_rows);
    }
    features.clear();
    for (size_t c = 0; c < num_features; ++c) {
      const JsonValue& cell = cells[c];
      if (!cell.IsNumber()) {
        *error = "non-numeric feature cell";
        return false;
      }
      float feature;
      if (!FeatureFromCell(cell.AsNumber(), &feature)) {
        *error = "feature cell must be a finite number in float range";
        return false;
      }
      features.push_back(feature);
    }
    if (!data->features.Empty() && features.size() != data->Dim()) {
      *error = "inconsistent row arity";
      return false;
    }
    data->features.AppendRow(features);
    if (target != CsvTarget::kNone) {
      const JsonValue& last = cells[arity - 1];
      if (!last.IsNumber()) {
        *error = "non-numeric label/target cell";
        return false;
      }
      if (target == CsvTarget::kLabel) {
        int label = 0;
        if (!LabelFromCell(last.AsNumber(), &label)) {
          *error = "label cell must be a finite number in int range";
          return false;
        }
        data->labels.push_back(label);
      } else {
        data->targets.push_back(last.AsNumber());
      }
    }
  }
  return true;
}

/// In-order response emitter. Ordered responses occupy sequence slots
/// reserved at parse time on the reader thread; whichever thread fills the
/// head slot flushes the contiguous prefix. Unordered responses bypass the
/// slots entirely.
class OrderedEmitter {
 public:
  explicit OrderedEmitter(std::ostream* out) : out_(out) {}

  uint64_t ReserveSlot() {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_slot_++;
  }

  void EmitAt(uint64_t slot, std::string line) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[slot] = std::move(line);
    while (!pending_.empty() && pending_.begin()->first == next_emit_) {
      WriteLocked(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_emit_;
    }
  }

  /// Reserve + emit in one step (reader-thread synchronous responses).
  void EmitOrdered(std::string line) { EmitAt(ReserveSlot(), std::move(line)); }

  void EmitNow(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    WriteLocked(line);
  }

 private:
  void WriteLocked(const std::string& line) {
    (*out_) << line << '\n';
    out_->flush();
  }

  std::ostream* out_;
  std::mutex mutex_;
  uint64_t next_slot_ = 0;
  uint64_t next_emit_ = 0;
  std::map<uint64_t, std::string> pending_;
};

/// Bounded in-flight window: the reader blocks while `limit` value jobs
/// are outstanding (backpressure), and drains to zero at sync/quit/EOF.
class InFlightWindow {
 public:
  void Acquire(size_t limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return count_ < limit; });
    ++count_;
  }

  void Release() {
    // Notify while holding the lock: a post-unlock notify could run after
    // a drained Run() has already destroyed this stack-local window.
    std::lock_guard<std::mutex> lock(mutex_);
    --count_;
    cv_.notify_all();
  }

  void Drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

  /// Jobs currently outstanding (the shed policy's queue-depth probe).
  size_t Count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

/// Runs value jobs that share a result-cache key one at a time, in
/// dispatch order, whether or not they use the cache. Run concurrently, a
/// twin would probe the cache before or after its predecessor stored the
/// result depending on thread timing; queued behind it, the twin always
/// probes after, so `cache_hit` is a function of the input and the work
/// is not done twice. Uncached twins queue too: a shard worker lost
/// mid-request fails that request, and the twins behind it re-fit and
/// respawn instead of racing onto the dead topology. Jobs with different
/// keys never wait on each other.
class TwinQueue {
 public:
  /// True: no twin is in flight and the caller starts `job` now. False:
  /// `job` was queued; the Finish of its predecessor hands it back.
  bool Start(const ResultCacheKey& key, std::function<void()>* job) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [lane, idle] = lanes_.try_emplace(key);
    if (!idle) lane->second.push_back(std::move(*job));
    return idle;
  }

  /// Retires the running job of `key`. Returns the next queued twin, which
  /// the caller starts, or an empty function.
  std::function<void()> Finish(const ResultCacheKey& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto lane = lanes_.find(key);
    if (lane->second.empty()) {
      lanes_.erase(lane);
      return {};
    }
    std::function<void()> next = std::move(lane->second.front());
    lane->second.pop_front();
    return next;
  }

 private:
  std::mutex mutex_;
  // One lane per key with a job running: the twins queued behind it.
  std::unordered_map<ResultCacheKey, std::deque<std::function<void()>>,
                     ResultCache::KeyHash>
      lanes_;
};

}  // namespace

/// A request line whose `rows` ParseJsonWithRows decoded off the tree, for
/// `target`. The line stays, so rows needed for another target can be
/// taken from its tree instead.
struct RequestPipeline::LineRows {
  std::string_view line;
  CsvTarget target;
  Dataset data;
};

bool RequestPipeline::InlineRows(const JsonValue& request, CsvTarget target,
                                 LineRows* decoded, Dataset* data,
                                 std::string* error) {
  if (decoded == nullptr) return FromInlineRows(request.Get("rows"), target, data, error);
  if (decoded->target == target) {
    *data = std::move(decoded->data);
    return true;
  }
  // Decoded for another target: an append whose corpus was replaced
  // between the parse and the op.
  return FromInlineRows(ParseJson(decoded->line).value.Get("rows"), target, data,
                        error);
}

/// A value request after parse/validation: the engine request with corpus
/// snapshots resolved (so later mutations cannot affect it) plus the
/// response shaping fields.
struct RequestPipeline::PreparedValue {
  ValuationRequest engine_request;
  /// Schema of the resolved method, for the response's effective-params
  /// echo (held shared so re-registration cannot dangle it).
  std::shared_ptr<const MethodSchema> schema;
  bool include_values = true;
  bool ordered = true;
  bool has_id = false;
  JsonValue id;
  /// The client set {"trace":true}: echo the trace in the response.
  bool echo_trace = false;
  /// JSONL parse + request decode time (pipelined loop only).
  uint64_t parse_nanos = 0;
  /// Set when the job was dispatched to the pool; RunValue derives the
  /// queue wait from it.
  bool dispatched = false;
  std::chrono::steady_clock::time_point dispatch_time;
};

namespace {

EngineOptions EngineOptionsWith(const PipelineOptions& options,
                                MetricsRegistry* metrics,
                                std::shared_ptr<const ShardTopology> topology) {
  EngineOptions engine = options.engine;
  engine.metrics = metrics;
  engine.shard_topology = std::move(topology);
  return engine;
}

}  // namespace

RequestPipeline::RequestPipeline(const PipelineOptions& options)
    : options_(options),
      topology_(options.shards > 1
                    ? std::make_shared<const ShardTopology>(options)
                    : nullptr),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::Shared()),
      max_in_flight_(options.max_in_flight != 0 ? options.max_in_flight
                                                : 2 * pool_->NumThreads()),
      metrics_(options.observability ? std::make_unique<MetricsRegistry>()
                                     : nullptr),
      engine_(EngineOptionsWith(options, metrics_.get(), topology_)) {
  if (metrics_ != nullptr) {
    parse_nanos_ = metrics_->GetCounter(
        std::string("knnshap_phase_nanos_total{phase=\"") +
        PhaseName(Phase::kParse) + "\"}");
    serialize_nanos_ = metrics_->GetCounter(
        std::string("knnshap_phase_nanos_total{phase=\"") +
        PhaseName(Phase::kSerialize) + "\"}");
    queue_nanos_ = metrics_->GetCounter(
        std::string("knnshap_phase_nanos_total{phase=\"") +
        PhaseName(Phase::kQueueWait) + "\"}");
    queue_seconds_ = metrics_->GetHistogram("knnshap_queue_wait_seconds");
    in_flight_ = metrics_->GetGauge("knnshap_in_flight_requests");
    shed_metric_ = metrics_->GetCounter("knnshap_shed_total");
    snapshot_failures_metric_ =
        metrics_->GetCounter("knnshap_snapshot_failures_total");
  }
}

JsonValue RequestPipeline::ShedResponse(const JsonValue& request) {
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  if (shed_metric_ != nullptr) shed_metric_->Add(1);
  JsonValue out =
      ErrorResponse(Status::Unavailable("server overloaded: value queue full"));
  out.Set("retry_after_ms", JsonValue(kRetryAfterMs));
  if (request.Has("id")) out.Set("id", request.Get("id"));
  return out;
}

void RequestPipeline::SnapshotNow() {
  if (options_.snapshot_path.empty()) return;
  if (FaultInjectionEnabled() && Fault("snapshot")) {
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    if (snapshot_failures_metric_ != nullptr) snapshot_failures_metric_->Add(1);
    return;
  }
  StatusOr<size_t> saved = engine_.SaveCache(options_.snapshot_path);
  if (saved.ok()) {
    snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A failed snapshot never kills serving, and SaveCache's atomicity
    // means the previous snapshot file is still intact.
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    if (snapshot_failures_metric_ != nullptr) snapshot_failures_metric_->Add(1);
  }
}

/// A barrier op drains every in-flight value first: values fill the
/// result cache and fitted set as they finish, so draining makes
/// invalidation (and stats / save_cache contents) deterministic instead of
/// racing job completion. Values never wait on values, and ops that answer
/// from constants or the store skip the barrier (ping stays a liveness
/// probe).
struct RequestPipeline::Op {
  std::string_view name;
  bool barrier;
  JsonValue (*handler)(RequestPipeline& pipeline, const JsonValue& request);
};

std::span<const RequestPipeline::Op> RequestPipeline::Ops() {
  using P = RequestPipeline;
  using R = const JsonValue&;
  static constexpr Op kOps[] = {
      {"append", true, [](P& p, R r) { return p.AppendRows(r); }},
      {"candidates", false, [](P& p, R r) { return p.shard_.Candidates(r); }},
      {"describe", false, [](P& p, R r) { return p.Describe(r); }},
      {"digests", false, [](P& p, R r) { return p.shard_.Digests(r); }},
      {"drop", true, [](P& p, R r) { return p.Drop(r); }},
      {"load", true, [](P& p, R r) { return p.Load(r); }},
      {"load_cache", true, [](P& p, R r) { return p.LoadCache(r); }},
      {"load_delta", true,
       [](P& p, R r) {
         std::vector<uint64_t> retired;
         JsonValue out = p.shard_.LoadDelta(r, &retired);
         for (uint64_t fingerprint : retired) p.InvalidateOld(fingerprint);
         return out;
       }},
      {"methods", false, [](P& p, R) { return p.Methods(); }},
      {"metrics", true, [](P& p, R) { return p.MetricsText(); }},
      {"ping", false, [](P&, R) { return OkResponse(); }},
      {"protocol", false,
       [](P&, R) {
         // The CI docs gate greps docs/PROTOCOL.md for each listed name.
         JsonValue out = wire::ProtocolResponse();
         JsonValue ops = JsonValue::MakeArray();
         for (const Op& op : Ops()) ops.Append(JsonValue(std::string(op.name)));
         out.Set("ops", std::move(ops));
         return out;
       }},
      {"quit", true,
       [](P&, R) {
         JsonValue out = OkResponse();
         out.Set("bye", JsonValue(true));
         return out;
       }},
      {"remove", true, [](P& p, R r) { return p.RemoveRow(r); }},
      {"save_cache", true, [](P& p, R r) { return p.SaveCache(r); }},
      {"stats", true, [](P& p, R) { return p.Stats(); }},
      {"sync", true, [](P&, R) { return OkResponse(); }},
      {"value", false,
       [](P& p, R r) {
         PreparedValue prepared;
         JsonValue error_response;
         if (!p.PrepareValue(r, &prepared, &error_response)) {
           return error_response;
         }
         return p.RunValue(prepared);
       }},
  };
  static_assert(std::ranges::is_sorted(kOps, {}, &Op::name),
                "FindOp binary-searches the op table by name");
  return kOps;
}

const RequestPipeline::Op* RequestPipeline::FindOp(std::string_view name) {
  const std::span<const Op> ops = Ops();
  const auto it = std::ranges::lower_bound(ops, name, {}, &Op::name);
  return it != ops.end() && it->name == name ? &*it : nullptr;
}

size_t RequestPipeline::Run(std::istream& in, std::ostream& out) {
  OrderedEmitter emitter(&out);
  InFlightWindow window;
  TwinQueue twins;
  size_t served = 0;
  LineReader reader(in.rdbuf());
  std::string_view line;
  // Periodic-snapshot cadence, ticked once per accepted value request on
  // the reader thread (shed and malformed requests do not count).
  auto value_snapshot_tick = [&] {
    if (options_.snapshot_every == 0) return;
    if (++values_since_snapshot_ >= options_.snapshot_every) {
      values_since_snapshot_ = 0;
      SnapshotNow();
    }
  };
  auto shutdown_requested = [&] {
    return options_.shutdown != nullptr &&
           options_.shutdown->load(std::memory_order_relaxed);
  };
  while (!shutdown_requested() && reader.Next(&line)) {
    if (line.empty()) continue;
    ++served;
    // Bound the parse: an over-long line is rejected before JSON-parsing
    // (no "id" echo — the line was never parsed).
    if (options_.max_line_bytes != 0 && line.size() > options_.max_line_bytes) {
      emitter.EmitOrdered(
          ErrorResponse(Status::InvalidArgument(
                            "request line of " + std::to_string(line.size()) +
                            " bytes exceeds the " +
                            std::to_string(options_.max_line_bytes) +
                            "-byte limit"))
              .Dump());
      continue;
    }
    // Clock reads are metrics-gated: with observability off this loop
    // reads no clocks at all.
    std::chrono::steady_clock::time_point parse_start;
    if (metrics_ != nullptr) parse_start = std::chrono::steady_clock::now();
    // A long load/append line's `rows` are decoded off the tree, in
    // parallel; every other line, and any line that deviates, is parsed
    // whole, so the reply bytes are the same either way.
    LineRows rows{line, CsvTarget::kNone, {}};
    bool rows_decoded = false;
    JsonParseResult parsed = ParseJsonWithRows(
        line, *pool_,
        [&](const JsonValue& request, CsvTarget* target) {
          if (!InlineRowsTarget(request, target)) return false;
          rows.target = *target;
          return true;
        },
        &rows.data, &rows_decoded);
    if (!parsed.ok()) {
      emitter.EmitOrdered(ErrorResponse("parse error: " + parsed.error).Dump());
      continue;
    }
    const std::string& op = parsed.value.Get("op").AsString();
    // Barrier ops wait for every in-flight value first (see the op table).
    if (const Op* entry = FindOp(op); entry != nullptr && entry->barrier) {
      window.Drain();
    }

    // Admission control: with a bounded queue configured, an over-limit
    // value request is shed on the reader thread — the client gets an
    // immediate, structured unavailable instead of a frozen input stream.
    // (In the serial loop nothing is ever in flight, so only max_queue=0
    // sheds there — which is exactly the deterministic mode the
    // serial-vs-pipelined byte-identity test runs.)
    if (op == "value" && options_.max_queue >= 0 &&
        window.Count() >= static_cast<size_t>(options_.max_queue)) {
      emitter.EmitOrdered(ShedResponse(parsed.value).Dump());
      continue;
    }

    if (op == "value" && options_.pipelined) {
      auto prepared = std::make_shared<PreparedValue>();
      JsonValue error_response;
      if (!PrepareValue(parsed.value, prepared.get(), &error_response)) {
        emitter.EmitOrdered(error_response.Dump());
        continue;
      }
      if (metrics_ != nullptr) {
        prepared->parse_nanos = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - parse_start)
                .count());
      }
      // Fault site: a simulated dispatch failure degrades to a shed — the
      // request is declined, not lost, and the loop keeps serving.
      if (FaultInjectionEnabled() && Fault("dispatch")) {
        emitter.EmitOrdered(ShedResponse(parsed.value).Dump());
        continue;
      }
      const bool ordered = prepared->ordered;
      const uint64_t slot = ordered ? emitter.ReserveSlot() : 0;
      window.Acquire(max_in_flight_);
      if (in_flight_ != nullptr) in_flight_->Add(1);
      if (metrics_ != nullptr || prepared->engine_request.trace) {
        prepared->dispatched = true;  // queue wait will be measured
        prepared->dispatch_time = std::chrono::steady_clock::now();
      }
      prepared->engine_request.order = engine_.NextOrder();
      const std::optional<ResultCacheKey> twin_key =
          engine_.CacheKeyOf(prepared->engine_request);
      std::function<void()> job = [this, prepared, ordered, slot, twin_key,
                                   &emitter, &window, &twins] {
        std::string response = RunValue(*prepared).Dump();
        if (ordered) {
          emitter.EmitAt(slot, std::move(response));
        } else {
          emitter.EmitNow(response);
        }
        // The next twin holds its own window slot, so Drain still waits
        // for it after this job releases.
        if (twin_key) {
          if (std::function<void()> next = twins.Finish(*twin_key)) {
            pool_->Submit(std::move(next));
          }
        }
        if (in_flight_ != nullptr) in_flight_->Add(-1);
        window.Release();
      };
      if (!twin_key || twins.Start(*twin_key, &job)) pool_->Submit(std::move(job));
      value_snapshot_tick();
      continue;
    }

    if (rows_decoded) {
      emitter.EmitOrdered((op == "load" ? Load(parsed.value, &rows)
                                        : AppendRows(parsed.value, &rows))
                              .Dump());
      continue;
    }
    emitter.EmitOrdered(HandleSync(parsed.value).Dump());
    if (op == "value") value_snapshot_tick();
    if (op == "quit") {
      SnapshotNow();  // final flush: quit is a graceful exit
      return served;
    }
  }
  // EOF or graceful shutdown: drain in-flight work, then one final
  // snapshot so a restart resumes from the last served state.
  window.Drain();
  SnapshotNow();
  return served;
}

JsonValue RequestPipeline::HandleSync(const JsonValue& request) {
  if (!request.IsObject()) return ErrorResponse("request must be a JSON object");
  const std::string& name = request.Get("op").AsString();
  const Op* op = FindOp(name);
  if (op == nullptr) return ErrorResponse("unknown op '" + name + "'");
  return op->handler(*this, request);
}

// ---------------------------------------------------------------------------
// Corpus ops
// ---------------------------------------------------------------------------

void RequestPipeline::InvalidateOld(uint64_t old_fingerprint) {
  if (old_fingerprint != 0) engine_.InvalidateTrain(old_fingerprint);
}

bool RequestPipeline::InlineRowsTarget(const JsonValue& request,
                                       CsvTarget* target) const {
  const std::string& op = request.Get("op").AsString();
  if (op == "load") return CsvTargetFromName(request.Get("target").AsString(), target);
  if (op != "append") return false;
  const auto current = store_.Get(request.Get("name").AsString());
  if (!current) return false;
  *target = TargetOf(*current->data);
  return true;
}

JsonValue RequestPipeline::Load(const JsonValue& request, LineRows* rows) {
  const std::string& name = request.Get("name").AsString();
  if (name.empty()) return ErrorResponse("load: 'name' is required");
  CsvTarget target;
  if (!CsvTargetFromName(request.Get("target").AsString(), &target)) {
    return ErrorResponse("load: target must be label|target|none");
  }

  Dataset data;
  if (request.Has("path")) {
    CsvLoadResult loaded = LoadCsvDataset(request.Get("path").AsString(), target);
    if (!loaded.ok()) {
      // Typed pass-through: missing files stay not_found like every other
      // name/path-resolution failure, malformed content invalid_argument.
      return ErrorResponse(Status::Error(loaded.status.code(),
                                         "load: " + loaded.status.message()));
    }
    data = std::move(loaded.data);
  } else if (request.Has("rows")) {
    std::string error;
    if (!InlineRows(request, target, rows, &data, &error)) {
      return ErrorResponse("load: " + error);
    }
  } else if (request.Has("features")) {
    // Packed rows (docs/PROTOCOL.md §1), the form a shard router syncs.
    size_t dim = 0;
    if (!JsonInteger(request.Get("dim"), 1, kMaxJsonInteger, &dim)) {
      return ErrorResponse("load: 'dim' must be a positive integer");
    }
    std::string error;
    if (!wire::AppendPackedRows(request, dim, target, 0, &data, &error)) {
      return ErrorResponse("load: " + error);
    }
  } else {
    return ErrorResponse("load: need 'path', 'rows' or packed 'features'");
  }

  CorpusMutation mutation = store_.Put(name, std::move(data));
  // Replacing a name retires its old contents' engine state.
  if (mutation.old_fingerprint != mutation.snapshot.fingerprint) {
    InvalidateOld(mutation.old_fingerprint);
  }
  JsonValue out = OkResponse();
  SetSnapshotFields(&out, name, mutation.snapshot);
  return out;
}

JsonValue RequestPipeline::AppendRows(const JsonValue& request, LineRows* rows) {
  const std::string& name = request.Get("name").AsString();
  auto current = store_.Get(name);
  if (!current) return NotFoundResponse("append: unknown dataset '" + name + "'");
  if (current->window) {
    return ErrorResponse(WindowRefusal("append:", name, *current));
  }
  Dataset appended_rows;
  std::string error;
  if (!InlineRows(request, TargetOf(*current->data), rows, &appended_rows, &error)) {
    return ErrorResponse("append: " + error);
  }
  const size_t appended = appended_rows.Size();
  CorpusMutation mutation;
  if (!store_.Append(name, appended_rows, &mutation, &error)) {
    return ErrorResponse("append: " + error);
  }
  InvalidateOld(mutation.old_fingerprint);
  JsonValue out = OkResponse();
  SetSnapshotFields(&out, name, mutation.snapshot);
  out.Set("appended", JsonValue(static_cast<double>(appended)));
  return out;
}

JsonValue RequestPipeline::RemoveRow(const JsonValue& request) {
  const std::string& name = request.Get("name").AsString();
  auto current = store_.Get(name);
  if (!current) {
    return NotFoundResponse("remove: unknown dataset '" + name + "'");
  }
  if (current->window) {
    return ErrorResponse(WindowRefusal("remove:", name, *current));
  }
  size_t row = 0;
  if (!JsonInteger(request.Get("row"), 0, kMaxJsonInteger, &row)) {
    return ErrorResponse("remove: 'row' must be a non-negative integer");
  }
  CorpusMutation mutation;
  std::string error;
  if (!store_.RemoveRow(name, row, &mutation, &error)) {
    return ErrorResponse("remove: " + error);
  }
  InvalidateOld(mutation.old_fingerprint);
  JsonValue out = OkResponse();
  SetSnapshotFields(&out, name, mutation.snapshot);
  out.Set("removed_row", JsonValue(static_cast<double>(row)));
  return out;
}

JsonValue RequestPipeline::Drop(const JsonValue& request) {
  const std::string& name = request.Get("name").AsString();
  uint64_t old_fingerprint = 0;
  if (!store_.Drop(name, &old_fingerprint)) {
    return NotFoundResponse("drop: unknown dataset '" + name + "'");
  }
  // The satellite fix: dropping a corpus reclaims its fitted valuators and
  // cache entries immediately instead of waiting for LRU pressure.
  ValuationEngine::InvalidationStats stats = engine_.InvalidateTrain(old_fingerprint);
  JsonValue out = OkResponse();
  out.Set("name", JsonValue(name));
  out.Set("fitted_evicted", JsonValue(static_cast<double>(stats.fitted_evicted)));
  out.Set("cache_evicted", JsonValue(static_cast<double>(stats.cache_evicted)));
  return out;
}

// ---------------------------------------------------------------------------
// Introspection and cache ops
// ---------------------------------------------------------------------------

JsonValue RequestPipeline::Methods() const {
  JsonValue out = OkResponse();
  JsonValue methods = JsonValue::MakeArray();
  for (const auto& info : engine_.Registry().Methods()) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("name", JsonValue(info.name));
    entry.Set("description", JsonValue(info.description));
    methods.Append(entry);
  }
  out.Set("methods", methods);
  return out;
}

JsonValue RequestPipeline::Describe(const JsonValue& request) const {
  // Full runtime introspection: every registered method's declarative
  // schema — typed params with defaults/ranges/docs, supported tasks,
  // data requirements and capability flags — generated from the same
  // MethodSchema the validator and the cache fingerprints run on.
  const ValuatorRegistry& registry = engine_.Registry();
  JsonValue out = OkResponse();
  JsonValue methods = JsonValue::MakeArray();
  if (request.Has("method")) {
    const std::string& name = request.Get("method").AsString();
    auto schema = registry.Schema(name);
    if (schema == nullptr) {
      return ErrorResponse(registry.UnknownMethodError(name));
    }
    methods.Append(SchemaToJson(*schema));
  } else {
    for (const auto& schema : registry.Schemas()) {
      methods.Append(SchemaToJson(*schema));
    }
  }
  out.Set("methods", methods);
  return out;
}

JsonValue RequestPipeline::Stats() const {
  JsonValue out = OkResponse();
  // Cache sizing facts next to the hit/miss counters: entries vs capacity
  // and resident payload bytes are what size a --cache choice.
  JsonValue cache = CountersJson(engine_.CacheStats());
  cache.Set("entries", JsonValue(static_cast<double>(engine_.CacheEntries())));
  cache.Set("capacity", JsonValue(static_cast<double>(engine_.CacheCapacity())));
  cache.Set("bytes", JsonValue(static_cast<double>(engine_.CacheBytes())));
  out.Set("cache", std::move(cache));
  out.Set("fitted_valuators",
          JsonValue(static_cast<double>(engine_.FittedCount())));
  out.Set("fit_reuses", JsonValue(static_cast<double>(engine_.FitReuses())));
  const auto fitted_by_train = engine_.FittedByTrain();
  const auto corpora = store_.List();
  JsonValue datasets = JsonValue::MakeArray();
  for (const auto& [name, snapshot] : corpora) {
    JsonValue entry = JsonValue::MakeObject();
    SetSnapshotFields(&entry, name, snapshot);
    const auto fitted = fitted_by_train.find(snapshot.fingerprint);
    entry.Set("fitted",
              JsonValue(static_cast<double>(
                  fitted != fitted_by_train.end() ? fitted->second : 0)));
    datasets.Append(entry);
  }
  out.Set("datasets", datasets);
  // Robustness counters: what the server declined or failed to do, next
  // to what it did. Deterministic under --no-timing: uptime is
  // timing-gated and the queue depth is drained to zero by the stats
  // barrier.
  JsonValue server = JsonValue::MakeObject();
  if (options_.emit_timing) {
    server.Set("uptime_seconds",
               JsonValue(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_time_)
                             .count()));
  }
  server.Set("queue_depth",
             JsonValue(static_cast<double>(
                 in_flight_ != nullptr ? in_flight_->Value() : 0)));
  server.Set("shed_total",
             JsonValue(static_cast<double>(
                 shed_total_.load(std::memory_order_relaxed))));
  server.Set("deadline_exceeded_total",
             JsonValue(static_cast<double>(engine_.DeadlineExceededCount())));
  server.Set("snapshots_taken",
             JsonValue(static_cast<double>(
                 snapshots_taken_.load(std::memory_order_relaxed))));
  server.Set("snapshot_failures",
             JsonValue(static_cast<double>(
                 snapshot_failures_.load(std::memory_order_relaxed))));
  out.Set("server", std::move(server));
  // Topology is emitted only when sharding is on: the unsharded stats
  // response stays byte-identical to the pre-shard wire (golden
  // transcripts). Plans are pure functions of corpus digests — no timing,
  // no worker state — so this section is deterministic too.
  if (topology_ != nullptr) {
    JsonValue topology = JsonValue::MakeObject();
    topology.Set("shards", JsonValue(static_cast<double>(topology_->shards)));
    const bool remote = !topology_->shard_remote.empty();
    topology.Set("workers", JsonValue(remote ? "remote" : "process"));
    if (remote) {
      // The configured replica endpoints per shard — static topology facts
      // only (no liveness probes: stats stays deterministic and cheap).
      JsonValue replicas = JsonValue::MakeArray();
      for (const auto& group : topology_->shard_remote) {
        JsonValue endpoints = JsonValue::MakeArray();
        for (const std::string& endpoint : group) {
          endpoints.Append(JsonValue(endpoint));
        }
        replicas.Append(std::move(endpoints));
      }
      topology.Set("replicas", std::move(replicas));
    }
    JsonValue plans = JsonValue::MakeObject();
    for (const auto& [name, snapshot] : corpora) {
      JsonValue ranges = JsonValue::MakeArray();
      for (const ShardRange& range :
           PlanShards(*snapshot.digests,
                      static_cast<size_t>(topology_->shards))) {
        JsonValue entry = JsonValue::MakeObject();
        entry.Set("row_begin",
                  JsonValue(static_cast<double>(range.row_begin)));
        entry.Set("row_end", JsonValue(static_cast<double>(range.row_end)));
        entry.Set("fingerprint",
                  JsonValue(wire::FingerprintHex(range.fingerprint)));
        ranges.Append(entry);
      }
      plans.Set(name, std::move(ranges));
    }
    topology.Set("plans", std::move(plans));
    out.Set("topology", std::move(topology));
  }
  if (metrics_ != nullptr) out.Set("metrics", StatsMetricsJson());
  return out;
}

JsonValue RequestPipeline::StatsMetricsJson() const {
  const MetricsRegistry::RegistrySnapshot snap = metrics_->Snapshot();
  JsonValue out = JsonValue::MakeObject();
  // Deterministic under --no-timing: request/error counts and the (drained
  // to zero) in-flight depth. Everything time-valued is timing-gated.
  JsonValue requests = JsonValue::MakeObject();
  JsonValue errors = JsonValue::MakeObject();
  for (const auto& counter : snap.counters) {
    const std::string method = ExtractLabel(counter.name, "method");
    if (method.empty()) continue;
    if (counter.name.compare(0, 22, "knnshap_requests_total") == 0) {
      requests.Set(method, JsonValue(static_cast<double>(counter.value)));
    } else if (counter.name.compare(0, 28, "knnshap_request_errors_total") == 0 &&
               counter.value > 0) {
      errors.Set(method, JsonValue(static_cast<double>(counter.value)));
    }
  }
  out.Set("requests", std::move(requests));
  out.Set("errors", std::move(errors));
  out.Set("in_flight",
          JsonValue(static_cast<double>(
              in_flight_ != nullptr ? in_flight_->Value() : 0)));
  if (!options_.emit_timing) return out;

  auto histogram_json = [](const HistogramSnapshot& h) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("count", JsonValue(static_cast<double>(h.count)));
    entry.Set("p50", JsonValue(h.Quantile(0.50)));
    entry.Set("p95", JsonValue(h.Quantile(0.95)));
    entry.Set("p99", JsonValue(h.Quantile(0.99)));
    entry.Set("max", JsonValue(h.max));
    return entry;
  };
  JsonValue latency = JsonValue::MakeObject();
  JsonValue queue_wait;
  for (const auto& histogram : snap.histograms) {
    const std::string method = ExtractLabel(histogram.name, "method");
    if (!method.empty() &&
        histogram.name.compare(0, 23, "knnshap_request_seconds") == 0) {
      latency.Set(method, histogram_json(histogram.snapshot));
    } else if (histogram.name == "knnshap_queue_wait_seconds" &&
               histogram.snapshot.count > 0) {
      queue_wait = histogram_json(histogram.snapshot);
    }
  }
  out.Set("latency", std::move(latency));
  if (queue_wait.IsObject()) out.Set("queue_wait", std::move(queue_wait));
  JsonValue phases = JsonValue::MakeObject();
  for (const auto& counter : snap.counters) {
    const std::string phase = ExtractLabel(counter.name, "phase");
    if (phase.empty() || counter.value == 0) continue;
    phases.Set(phase, JsonValue(static_cast<double>(counter.value) * 1e-9));
  }
  out.Set("phase_seconds", std::move(phases));
  return out;
}

JsonValue RequestPipeline::MetricsText() const {
  if (metrics_ == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "metrics: observability is disabled on this pipeline"));
  }
  // Scrape-time gauges mirroring engine state the registry cannot see.
  metrics_->GetGauge("knnshap_result_cache_entries")
      ->Set(static_cast<int64_t>(engine_.CacheEntries()));
  metrics_->GetGauge("knnshap_result_cache_bytes")
      ->Set(static_cast<int64_t>(engine_.CacheBytes()));
  metrics_->GetGauge("knnshap_fitted_valuators")
      ->Set(static_cast<int64_t>(engine_.FittedCount()));
  JsonValue out = OkResponse();
  out.Set("content_type", JsonValue("text/plain; version=0.0.4"));
  out.Set("text", JsonValue(metrics_->PrometheusText()));
  return out;
}

JsonValue RequestPipeline::SaveCache(const JsonValue& request) {
  const std::string& path = request.Get("path").AsString();
  if (path.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("save_cache: 'path' is required", "path"));
  }
  StatusOr<size_t> entries = engine_.SaveCache(path);
  if (!entries.ok()) {
    return ErrorResponse(Status::Error(entries.status().code(),
                                       "save_cache: " + entries.status().message()));
  }
  JsonValue out = OkResponse();
  out.Set("path", JsonValue(path));
  out.Set("entries", JsonValue(static_cast<double>(entries.value())));
  return out;
}

JsonValue RequestPipeline::LoadCache(const JsonValue& request) {
  const std::string& path = request.Get("path").AsString();
  if (path.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("load_cache: 'path' is required", "path"));
  }
  StatusOr<CacheLoadResult> loaded = engine_.LoadCache(path);
  if (!loaded.ok()) {
    return ErrorResponse(Status::Error(loaded.status().code(),
                                       "load_cache: " + loaded.status().message()));
  }
  JsonValue out = OkResponse();
  out.Set("path", JsonValue(path));
  out.Set("entries", JsonValue(static_cast<double>(loaded.value().entries)));
  // Salvage is a success with a scar: the valid prefix of a damaged file
  // was loaded, and the warning says where the damage started.
  if (loaded.value().salvaged) {
    out.Set("salvaged", JsonValue(true));
    out.Set("warning", JsonValue(loaded.value().warning));
  }
  return out;
}

// ---------------------------------------------------------------------------
// value
// ---------------------------------------------------------------------------

bool RequestPipeline::PrepareValue(const JsonValue& request, PreparedValue* prepared,
                                   JsonValue* error_response) {
  auto fail = [&](const Status& status) {
    *error_response = ErrorResponse(status);
    if (request.Has("id")) error_response->Set("id", request.Get("id"));
    return false;
  };

  ValuationRequest& engine_request = prepared->engine_request;
  engine_request.method = request.Get("method").IsString()
                              ? request.Get("method").AsString()
                              : "exact";

  // The method's schema is the validator: hyperparameter parsing below is
  // derived from its declared ParamSpecs, not hand-rolled per field.
  prepared->schema = engine_.Registry().Schema(engine_request.method);
  if (prepared->schema == nullptr) {
    return fail(engine_.Registry().UnknownMethodError(engine_request.method));
  }

  // Strict fields: anything that is neither protocol nor a known
  // hyperparameter is a typo answered with the offending field's name.
  static const std::vector<std::string> kValueProtocolFields = {
      "op",    "method",   "train",   "test",           "queries",
      "cache", "parallel", "ordered", "include_values", "id",
      "trace", "deadline_ms"};
  if (Status status = CheckRequestFields(request, kValueProtocolFields);
      !status.ok()) {
    return fail(status);
  }

  // Schema-derived parse/validate of task + hyperparameters. Declared
  // params are applied; known-but-undeclared ones are range-checked and
  // ignored (they cannot perturb this method's results or cache identity).
  if (Status status = ApplyJsonParams(*prepared->schema, request,
                                      &engine_request.params);
      !status.ok()) {
    return fail(status);
  }

  auto train = store_.Get(request.Get("train").AsString());
  if (!train) {
    return fail(Status::NotFound("value: unknown train dataset '" +
                                 request.Get("train").AsString() + "'"));
  }
  if (train->window) {
    return fail(WindowRefusal("value: train dataset",
                              request.Get("train").AsString(), *train));
  }
  engine_request.train = train->data;
  engine_request.train_fingerprint = train->fingerprint;
  // A shard plan is content-addressed through the snapshot's block
  // digests, so this request values exactly the corpus version it
  // snapshotted even if a mutation lands while it is queued.
  engine_request.train_digests = train->digests;
  engine_request.train_name = request.Get("train").AsString();

  if (request.Has("test")) {
    auto test = store_.Get(request.Get("test").AsString());
    if (!test) {
      return fail(Status::NotFound("value: unknown test dataset '" +
                                   request.Get("test").AsString() + "'"));
    }
    if (test->window) {
      return fail(WindowRefusal("value: test dataset",
                                request.Get("test").AsString(), *test));
    }
    engine_request.test = test->data;
    engine_request.test_fingerprint = test->fingerprint;
  } else if (request.Has("queries")) {
    // Inline one-shot query batch; labeled/targeted per the effective task.
    CsvTarget target =
        prepared->schema->RequiresTargets(engine_request.params.task)
            ? CsvTarget::kTarget
            : CsvTarget::kLabel;
    Dataset queries;
    std::string error;
    if (!FromInlineRows(request.Get("queries"), target, &queries, &error)) {
      return fail(Status::InvalidArgument("value: " + error, "queries"));
    }
    queries.name = "inline-queries";
    engine_request.test = std::make_shared<const Dataset>(std::move(queries));
  } else {
    return fail(Status::InvalidArgument(
        "value: need 'test' (dataset name) or 'queries'"));
  }

  // Deadline: a per-request "deadline_ms" wins over the server-wide
  // default. 0 is a valid (already-expired) deadline — the deterministic
  // way to exercise the deadline_exceeded path.
  if (request.Has("deadline_ms")) {
    size_t deadline_ms = 0;
    if (!JsonInteger(request.Get("deadline_ms"), 0, kMaxJsonInteger,
                     &deadline_ms)) {
      return fail(Status::InvalidArgument(
          "value: 'deadline_ms' must be a non-negative integer",
          "deadline_ms"));
    }
    engine_request.cancel = std::make_shared<const CancelToken>(
        static_cast<int64_t>(deadline_ms));
  } else if (options_.default_deadline_ms > 0) {
    engine_request.cancel =
        std::make_shared<const CancelToken>(options_.default_deadline_ms);
  }

  engine_request.use_cache = request.Get("cache").AsBool(true);
  // Inline queries have no store fingerprint. Hashing them here, not on
  // the worker, gives the request its cache key before dispatch, which
  // is what queues it behind an in-flight twin.
  if (engine_request.use_cache && engine_request.test_fingerprint == 0) {
    engine_request.test_fingerprint = DatasetFingerprint(*engine_request.test);
  }
  engine_request.parallel = request.Get("parallel").AsBool(true);
  // Deep tracing is on when the client asks ({"trace":true}), the server
  // forces it (--trace-all), or a slow-log threshold needs the breakdown
  // ready before it knows the request is slow. Only the first two echo
  // the trace back in the response.
  prepared->echo_trace = request.Get("trace").AsBool(false) || options_.trace_all;
  engine_request.trace = prepared->echo_trace || options_.slow_ms > 0.0;

  prepared->include_values = request.Get("include_values").AsBool(true);
  prepared->ordered = request.Get("ordered").AsBool(true);
  prepared->has_id = request.Has("id");
  if (prepared->has_id) prepared->id = request.Get("id");
  return true;
}

JsonValue RequestPipeline::RunValue(const PreparedValue& prepared) {
  // Queue wait: dispatch-to-run latency of the pipelined loop. Inline
  // requests (serial loop, HandleSync) have none.
  uint64_t queue_nanos = 0;
  if (prepared.dispatched) {
    queue_nanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - prepared.dispatch_time)
            .count());
  }

  ValuationReport report = engine_.Value(prepared.engine_request);
  report.queue_seconds = static_cast<double>(queue_nanos) * 1e-9;
  report.shed_total = shed_total_.load(std::memory_order_relaxed);
  if (report.trace != nullptr) {
    if (queue_nanos != 0) report.trace->Add(Phase::kQueueWait, queue_nanos);
    if (prepared.parse_nanos != 0) {
      report.trace->Add(Phase::kParse, prepared.parse_nanos);
    }
  }
  if (metrics_ != nullptr) {
    if (prepared.parse_nanos != 0) parse_nanos_->Add(prepared.parse_nanos);
    if (prepared.dispatched) {
      queue_nanos_->Add(queue_nanos);
      queue_seconds_->Observe(report.queue_seconds);
    }
  }

  if (!report.ok()) {
    JsonValue error_response = ErrorResponse(report.status);
    if (prepared.has_id) error_response.Set("id", prepared.id);
    // Unavailable means "a retry can succeed" (a dead shard worker is
    // respawned by the re-fit the retry triggers), so it carries the same
    // deterministic retry hint as a shed response.
    if (report.status.code() == StatusCode::kUnavailable) {
      error_response.Set("retry_after_ms", JsonValue(kRetryAfterMs));
    }
    // A deadline error still echoes the partial trace when one was
    // requested: the phases that ran before the deadline fired are
    // exactly the diagnosis the client needs.
    if (report.status.code() == StatusCode::kDeadlineExceeded &&
        prepared.echo_trace && report.trace != nullptr) {
      error_response.Set("trace", TraceJson(report, options_.emit_timing));
    }
    return error_response;
  }

  const bool time_serialize = metrics_ != nullptr || report.trace != nullptr;
  std::chrono::steady_clock::time_point serialize_start;
  if (time_serialize) serialize_start = std::chrono::steady_clock::now();
  JsonValue out = OkResponse();
  if (prepared.has_id) out.Set("id", prepared.id);
  out.Set("method", JsonValue(report.method));
  out.Set("train_size", JsonValue(static_cast<double>(report.train_size)));
  out.Set("num_queries", JsonValue(static_cast<double>(report.num_queries)));
  // Echo of the *effective declared* hyperparameters (schema-serialized):
  // exactly the fields that determined the result and its cache identity.
  out.Set("params",
          ParamsToJson(*prepared.schema, prepared.engine_request.params));
  out.Set("cache_hit", JsonValue(report.cache_hit));
  if (report.approx_bound > 0.0) {
    // Only approximate requests carry the analytic error bound; default
    // (exact) responses stay byte-identical to the pre-truncation wire.
    out.Set("approx_bound", JsonValue(report.approx_bound));
  }
  JsonValue summary = JsonValue::MakeObject();
  summary.Set("mean", JsonValue(report.summary.mean));
  summary.Set("min", JsonValue(report.summary.min));
  summary.Set("max", JsonValue(report.summary.max));
  summary.Set("total", JsonValue(report.summary.total));
  summary.Set("fraction_negative", JsonValue(report.summary.fraction_negative));
  out.Set("summary", summary);
  if (prepared.include_values) {
    JsonValue values = JsonValue::MakeArray();
    values.Items().reserve(report.values.size());
    for (double v : report.values) values.Items().emplace_back(v);
    out.Set("values", std::move(values));
  }
  if (options_.emit_timing) out.Set("seconds", JsonValue(report.seconds));

  // The serialize span covers the response build above; it is credited
  // before the trace is rendered so the echoed trace includes it.
  if (time_serialize) {
    const uint64_t serialize_nanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - serialize_start)
            .count());
    if (report.trace != nullptr) {
      report.trace->Add(Phase::kSerialize, serialize_nanos);
    }
    if (metrics_ != nullptr) serialize_nanos_->Add(serialize_nanos);
  }
  if (prepared.echo_trace && report.trace != nullptr) {
    out.Set("trace", TraceJson(report, options_.emit_timing));
  }
  MaybeLogSlow(prepared, report);
  return out;
}

void RequestPipeline::MaybeLogSlow(const PreparedValue& prepared,
                                   const ValuationReport& report) {
  if (options_.slow_ms <= 0.0 || report.trace == nullptr) return;
  const double total_ms = (report.seconds + report.queue_seconds) * 1e3;
  if (total_ms < options_.slow_ms) return;
  JsonValue line = JsonValue::MakeObject();
  line.Set("slow_request", JsonValue(true));
  if (prepared.has_id) line.Set("id", prepared.id);
  line.Set("method", JsonValue(report.method));
  line.Set("train_size", JsonValue(static_cast<double>(report.train_size)));
  line.Set("num_queries", JsonValue(static_cast<double>(report.num_queries)));
  line.Set("seconds", JsonValue(report.seconds));
  line.Set("queue_seconds", JsonValue(report.queue_seconds));
  line.Set("fit_seconds", JsonValue(report.fit_seconds));
  line.Set("cache_hit", JsonValue(report.cache_hit));
  line.Set("trace", TraceJson(report, /*timed=*/true));
  std::ostream* sink =
      options_.slow_log != nullptr ? options_.slow_log : &std::cerr;
  // One lock per offending request; the log stays line-atomic under
  // concurrent completions.
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  (*sink) << line.Dump() << '\n';
  sink->flush();
}

}  // namespace knnshap
