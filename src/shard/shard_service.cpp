// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/shard_service.h"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <utility>

#include "dataset/io.h"
#include "knn/selection.h"
#include "shard/shard_planner.h"
#include "shard/wire.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/status.h"

namespace knnshap {

using wire::ErrorResponse;
using wire::OkResponse;

bool ShardCandidates(const Matrix& features, std::span<const float> query,
                     Metric metric, const CorpusNorms* norms, size_t row_begin,
                     size_t row_end, size_t r, std::span<double> dists,
                     std::vector<int>* run, size_t first_row) {
  run->clear();
  ComputeDistancesRange(features, query, metric, norms, row_begin - first_row,
                        row_end - first_row, dists);
  if (CancelRequested()) return false;
  if (wire::RepliesWithColumn(r, row_end - row_begin)) return true;
  thread_local std::vector<int> local;
  PartialArgsortDistances(dists, r, &local);
  run->reserve(local.size());
  for (int i : local) run->push_back(i + static_cast<int>(row_begin));
  return true;
}

void SetSnapshotFields(JsonValue* out, const std::string& name,
                       const CorpusSnapshot& snapshot) {
  out->Set("name", JsonValue(name));
  out->Set("rows", JsonValue(static_cast<double>(snapshot.data->Size())));
  out->Set("dim", JsonValue(static_cast<double>(snapshot.data->Dim())));
  out->Set("version", JsonValue(static_cast<double>(snapshot.version)));
  out->Set("fingerprint",
           JsonValue(wire::FingerprintHex(snapshot.fingerprint)));
  if (snapshot.window) {
    out->Set("row_begin", JsonValue(static_cast<double>(snapshot.row_begin)));
  }
}

JsonValue ShardService::Candidates(const JsonValue& request) {
  // Chaos site: a worker that dies mid-query exercises the router's
  // dead-worker path (EOF on the response pipe -> Unavailable + retry).
  // Exit, not a structured error: the point is an abrupt death.
  if (FaultInjectionEnabled() && Fault("shard_candidates")) _exit(3);

  const std::string& name = request.Get("train").AsString();
  auto held = store_->Get(name);
  if (!held) {
    return ErrorResponse(
        Status::NotFound("candidates: unknown dataset '" + name + "'"));
  }
  const Dataset& rows = *held->data;
  Metric metric;
  if (!MetricFromName(request.Get("metric").AsString(), &metric)) {
    return ErrorResponse("candidates: unknown metric '" +
                         request.Get("metric").AsString() + "'");
  }
  size_t r = 0, row_begin = 0, row_end = 0;
  if (!JsonInteger(request.Get("r"), 0, kMaxJsonInteger, &r) ||
      !JsonInteger(request.Get("row_begin"), 0, kMaxJsonInteger, &row_begin) ||
      !JsonInteger(request.Get("row_end"), 0, kMaxJsonInteger, &row_end)) {
    return ErrorResponse(
        "candidates: 'r', 'row_begin', 'row_end' must be non-negative "
        "integers");
  }
  // The range names corpus rows, and must lie inside the rows this worker
  // holds: its shard's window, or a whole corpus a client loaded.
  const size_t held_begin = held->row_begin;
  const size_t held_end = held_begin + rows.Size();
  if (row_begin >= row_end || row_begin < held_begin || row_end > held_end) {
    return ErrorResponse("candidates: row range [" +
                         std::to_string(row_begin) + ", " +
                         std::to_string(row_end) + ") is not within the held "
                         "rows [" + std::to_string(held_begin) + ", " +
                         std::to_string(held_end) + ")");
  }
  // ShardFingerprint requires block alignment (a core check, fatal);
  // requests are validated to structured errors here instead.
  const size_t block_rows = held->digests->block_rows;
  if (row_begin % block_rows != 0 ||
      (row_end % block_rows != 0 && row_end != held_end)) {
    return ErrorResponse("candidates: row range must be aligned to the " +
                         std::to_string(block_rows) +
                         "-row fingerprint blocks");
  }
  // Content addressing: the router's plan named this shard by the
  // fingerprint of exactly the rows it expects. A mismatch means this
  // worker holds a different corpus version — refuse rather than answer
  // candidates the merge would silently mis-rank.
  const uint64_t expected =
      ShardFingerprint(*held->digests, row_begin, row_end, held_begin);
  if (request.Get("fingerprint").AsString() != wire::FingerprintHex(expected)) {
    return ErrorResponse(Status::FailedPrecondition(
        "candidates: shard fingerprint mismatch for rows [" +
        std::to_string(row_begin) + ", " + std::to_string(row_end) +
        ") (expected " + wire::FingerprintHex(expected) + ", got '" +
        request.Get("fingerprint").AsString() + "')"));
  }
  const JsonValue& query_json = request.Get("query");
  if (!query_json.IsArray() || query_json.Items().size() != rows.Dim()) {
    return ErrorResponse(Status::InvalidArgument(
        "candidates: 'query' must be an array of " +
            std::to_string(rows.Dim()) + " numbers",
        "query"));
  }
  std::vector<float> query;
  query.reserve(query_json.Items().size());
  for (const JsonValue& cell : query_json.Items()) {
    float feature;
    if (!cell.IsNumber() || !FeatureFromCell(cell.AsNumber(), &feature)) {
      return ErrorResponse(Status::InvalidArgument(
          "candidates: query cells must be finite numbers in float range",
          "query"));
    }
    query.push_back(feature);
  }
  // The router forwards its *remaining* deadline budget; arming a fresh
  // token from it means this worker can never fire before its parent.
  std::unique_ptr<CancelToken> token;
  if (request.Has("deadline_ms")) {
    size_t deadline_ms = 0;
    if (!JsonInteger(request.Get("deadline_ms"), 0, kMaxJsonInteger,
                     &deadline_ms)) {
      return ErrorResponse(Status::InvalidArgument(
          "candidates: 'deadline_ms' must be a non-negative integer",
          "deadline_ms"));
    }
    token = std::make_unique<CancelToken>(static_cast<int64_t>(deadline_ms));
  }
  CancelActivation cancel_scope(token.get());

  std::shared_ptr<const CorpusNorms> norms;
  {
    // One slot keyed by corpus identity: a worker answers a stream of
    // queries against one version, so the norms pass runs once per
    // (corpus, metric), not per query.
    std::lock_guard<std::mutex> lock(norms_cache_mutex_);
    if (norms_cache_.norms == nullptr || norms_cache_.name != name ||
        norms_cache_.version != held->version ||
        norms_cache_.metric != metric) {
      norms_cache_.norms = std::make_shared<const CorpusNorms>(
          NormsForMetric(rows.features, metric));
      norms_cache_.name = name;
      norms_cache_.version = held->version;
      norms_cache_.metric = metric;
    }
    norms = norms_cache_.norms;
  }

  std::vector<double> dists(row_end - row_begin);
  std::vector<int> run;
  if (!ShardCandidates(rows.features, query, metric, norms.get(), row_begin,
                       row_end, r, dists, &run, held_begin) ||
      CancelRequested()) {
    return ErrorResponse(Status::DeadlineExceeded("deadline exceeded"));
  }

  // Raw doubles: the packed reply carries their bits, so the router's
  // ranking — and weighted-fast's kernel weights — match the unsharded
  // computation to the last bit. An r that covers the range gets the
  // whole distance column in row order; the router sorts all rows once.
  JsonValue out = OkResponse();
  if (wire::RepliesWithColumn(r, dists.size())) {
    out.Set("dists", JsonValue(wire::PackDistanceColumn(dists)));
    return out;
  }
  thread_local std::vector<double> run_dists;
  run_dists.clear();
  for (int i : run) {
    run_dists.push_back(dists[static_cast<size_t>(i) - row_begin]);
  }
  out.Set("run", JsonValue(wire::PackCandidateRun(run, run_dists)));
  return out;
}

JsonValue ShardService::Digests(const JsonValue& request) const {
  // Which rows of which corpus version does this worker hold? The router
  // diffs the per-block digests against its own over the window it plans
  // for this worker (wire::PlanCorpusSync) and ships nothing or the blocks
  // the worker lacks. Digests are maintained by the store, so this
  // answers without touching the rows.
  const std::string& name = request.Get("name").AsString();
  auto snapshot = store_->Get(name);
  if (!snapshot) {
    return ErrorResponse(
        Status::NotFound("digests: unknown dataset '" + name + "'"));
  }
  const CorpusDigests& digests = *snapshot->digests;
  JsonValue out = OkResponse();
  SetSnapshotFields(&out, name, *snapshot);
  out.Set("block_rows", JsonValue(static_cast<double>(digests.block_rows)));
  out.Set("target", JsonValue(CsvTargetName(TargetOf(*snapshot->data))));
  JsonValue blocks = JsonValue::MakeArray();
  for (size_t b = 0; b < digests.NumBlocks(); ++b) {
    blocks.Append(
        JsonValue(wire::FingerprintHex(wire::BlockDigest(digests, b))));
  }
  out.Set("blocks", std::move(blocks));
  return out;
}

JsonValue ShardService::LoadDelta(const JsonValue& request,
                                  std::vector<uint64_t>* retired) {
  // Window sync (docs/PROTOCOL.md): install corpus rows [row_begin,
  // row_end) — the shard this worker serves — from the blocks the request
  // carries plus the blocks of the held window it keeps. Blocks are
  // addressed by corpus block index, so a window whose boundaries moved
  // keeps its overlap. A request that carries every block of its window
  // needs nothing held. Any rejection is a structured error, never a
  // crash; the router then ships every block, so this op can only ever
  // save bytes, not correctness.
  const std::string& name = request.Get("name").AsString();
  if (name.empty()) return ErrorResponse("load_delta: 'name' is required");
  CsvTarget target;
  if (!CsvTargetFromName(request.Get("target").AsString(), &target)) {
    return ErrorResponse("load_delta: target must be label|target|none");
  }
  size_t rows = 0, dim = 0;
  if (!JsonInteger(request.Get("rows"), 1, kMaxJsonInteger, &rows) ||
      !JsonInteger(request.Get("dim"), 1, kMaxJsonInteger, &dim)) {
    return ErrorResponse(
        "load_delta: 'rows' and 'dim' must be positive integers");
  }
  // The window; without the fields, the whole corpus.
  size_t row_begin = 0, row_end = rows;
  if ((request.Has("row_begin") &&
       !JsonInteger(request.Get("row_begin"), 0, kMaxJsonInteger,
                    &row_begin)) ||
      (request.Has("row_end") &&
       !JsonInteger(request.Get("row_end"), 0, kMaxJsonInteger, &row_end))) {
    return ErrorResponse(
        "load_delta: 'row_begin' and 'row_end' must be non-negative "
        "integers");
  }
  if (row_begin >= row_end || row_end > rows) {
    return ErrorResponse("load_delta: window [" + std::to_string(row_begin) +
                         ", " + std::to_string(row_end) +
                         ") is not within the " + std::to_string(rows) +
                         "-row corpus");
  }
  const size_t block_rows = kFingerprintBlockRows;
  if (row_begin % block_rows != 0 ||
      (row_end % block_rows != 0 && row_end != rows)) {
    return ErrorResponse("load_delta: the window must be aligned to the " +
                         std::to_string(block_rows) +
                         "-row fingerprint blocks");
  }
  uint64_t expected = 0;
  if (!wire::ParseHexFingerprint(request.Get("fingerprint").AsString(),
                                 &expected)) {
    return ErrorResponse(
        "load_delta: 'fingerprint' must be a 0x-prefixed hex string");
  }
  const JsonValue& blocks = request.Get("blocks");
  if (!blocks.IsArray()) {
    return ErrorResponse("load_delta: 'blocks' must be an array");
  }
  const size_t first_block = row_begin / block_rows;
  const size_t end_block = (row_end + block_rows - 1) / block_rows;
  std::map<size_t, const JsonValue*> provided;
  for (const JsonValue& entry : blocks.Items()) {
    size_t b = 0;
    if (!JsonInteger(entry.Get("block"), first_block, end_block - 1, &b)) {
      return ErrorResponse(
          "load_delta: each block entry needs an integer 'block' inside "
          "the window's blocks [" + std::to_string(first_block) + ", " +
          std::to_string(end_block) + ")");
    }
    if (!provided.emplace(b, &entry).second) {
      return ErrorResponse("load_delta: duplicate block " +
                           std::to_string(b));
    }
  }

  // The blocks the request does not carry come from the held rows, which
  // must then be this corpus's: same name, target mode and dim.
  const auto base = store_->Get(name);
  const bool keeps = provided.size() < end_block - first_block;
  if (keeps) {
    if (!base) {
      return ErrorResponse(Status::NotFound(
          "load_delta: unknown dataset '" + name +
          "' (send every block of the window)"));
    }
    if (target != TargetOf(*base->data)) {
      return ErrorResponse(Status::FailedPrecondition(
          "load_delta: target mode does not match the held rows"));
    }
    if (dim != base->data->Dim()) {
      return ErrorResponse(Status::FailedPrecondition(
          "load_delta: dim " + std::to_string(dim) +
          " does not match the held rows (" +
          std::to_string(base->data->Dim()) + ")"));
    }
    // Fault site: a worker that cannot splice (disk, version skew)
    // answers a structured internal error; the router falls back to
    // shipping every block and the topology keeps serving.
    if (FaultInjectionEnabled() && Fault("delta_apply")) {
      return ErrorResponse(
          Status::Error(StatusCode::kInternal, "injected delta_apply fault"));
    }
  }

  Dataset next;
  // Sized by what the request can fill, not by its claimed row count.
  next.features.Reserve(
      std::min(row_end - row_begin,
               (keeps ? base->data->Size() : 0) + provided.size() * block_rows),
      dim);
  for (size_t b = first_block; b < end_block; ++b) {
    const size_t begin = b * block_rows;
    const size_t end = std::min(begin + block_rows, row_end);
    auto it = provided.find(b);
    if (it != provided.end()) {
      std::string error;
      if (!wire::AppendPackedRows(*it->second, dim, target, end - begin, &next,
                                  &error)) {
        return ErrorResponse("load_delta: block " + std::to_string(b) + ": " +
                             error);
      }
      continue;
    }
    // A kept block: the held window must cover all of its rows. The
    // router keeps only blocks whose held digest matches its own.
    const size_t held_begin = base->row_begin;
    const size_t held_end = held_begin + base->data->Size();
    if (begin < held_begin || end > held_end) {
      return ErrorResponse(Status::FailedPrecondition(
          "load_delta: kept block " + std::to_string(b) +
          " is not within the held rows [" + std::to_string(held_begin) +
          ", " + std::to_string(held_end) + ")"));
    }
    const Dataset& held = *base->data;
    const size_t local = begin - held_begin, local_end = end - held_begin;
    next.features.AppendRows(held.features, local, local_end);
    if (target == CsvTarget::kLabel) {
      next.labels.insert(next.labels.end(), held.labels.begin() + local,
                         held.labels.begin() + local_end);
    } else if (target == CsvTarget::kTarget) {
      next.targets.insert(next.targets.end(), held.targets.begin() + local,
                          held.targets.begin() + local_end);
    }
  }

  CorpusMutation mutation =
      store_->PutWindow(name, std::move(next), row_begin);
  if (mutation.snapshot.fingerprint != expected) {
    // The splice produced the wrong contents (corruption in flight, or a
    // router/worker disagreement the plan missed). Serving candidates off
    // it would silently mis-rank, so drop it outright: the router's
    // fallback ships every block from scratch.
    uint64_t dropped = 0;
    store_->Drop(name, &dropped);
    retired->push_back(mutation.old_fingerprint);
    retired->push_back(dropped);
    return ErrorResponse(Status::Error(
        StatusCode::kDataLoss,
        "load_delta: window fingerprint mismatch after splice (expected " +
            wire::FingerprintHex(expected) + ", got " +
            wire::FingerprintHex(mutation.snapshot.fingerprint) +
            "); rows dropped — send every block"));
  }
  if (mutation.old_fingerprint != mutation.snapshot.fingerprint) {
    retired->push_back(mutation.old_fingerprint);
  }
  JsonValue out = OkResponse();
  SetSnapshotFields(&out, name, mutation.snapshot);
  out.Set("applied", JsonValue(static_cast<double>(provided.size())));
  return out;
}

}  // namespace knnshap
