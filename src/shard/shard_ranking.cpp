// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/shard_ranking.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "knn/selection.h"
#include "obs/trace.h"
#include "shard/shard_planner.h"
#include "shard/socket_worker.h"
#include "util/cancel.h"
#include "util/common.h"
#include "util/net.h"
#include "util/thread_pool.h"

namespace knnshap {

ShardRanking::ShardRanking(const Dataset& corpus, Metric metric,
                           const ShardContext& context)
    : rows_(corpus.Size()), digests_(context.digests) {
  const ShardTopology& topology = *context.topology;
  if (topology.worker_command.empty() && topology.remote_replicas.empty()) {
    // Unsharded serving is the in-process path (LocalRanking); a sharded
    // fit needs workers in other processes.
    throw std::runtime_error(
        "sharded fit: the topology places no workers (set a worker command "
        "or remote replicas)");
  }
  if (digests_ == nullptr) {
    // No maintained digests (engine used outside the serve layer): one
    // full hash here buys content-addressed shard identity all the same.
    digests_ =
        std::make_shared<const CorpusDigests>(ComputeCorpusDigests(corpus));
  }
  const CorpusDigests& digests = *digests_;
  const std::vector<ShardRange> plan =
      PlanShards(digests, static_cast<size_t>(std::max(topology.count, 1)));
  workers_.reserve(plan.size());
  const uint64_t fingerprint = digests.Combined();
  const ShardTransportCounters counters =
      ShardTransportCounters::From(context.metrics);
  // Workers connect and sync every shard at once on the shared pool
  // (the caller helps, so this is safe from a pool thread). The fit's
  // trace follows each shard onto its helper thread.
  RequestTrace* trace = ActiveTrace();
  const auto for_each_shard = [&](const auto& fn) {
    ThreadPool::Shared().ParallelForHelping(workers_.size(), [&](size_t s) {
      TraceActivation activation(trace);
      fn(s);
    });
  };
  if (!topology.remote_replicas.empty()) {
    // Remote sockets: one ReplicaShardWorker per planned shard, each with
    // its ordered replica list. Endpoint parse errors throw (bad flag —
    // the engine answers a structured internal error); dial failures do
    // NOT — the eager Connect below is best-effort, so an all-dead
    // topology surfaces as unavailable + retry_after_ms through the
    // normal fan-out health path instead of poisoning the fit.
    if (topology.remote_replicas.size() < plan.size()) {
      throw std::runtime_error(
          "sharded fit: " + std::to_string(plan.size()) +
          " planned shards but only " +
          std::to_string(topology.remote_replicas.size()) +
          " remote replica group(s)");
    }
    for (size_t s = 0; s < plan.size(); ++s) {
      std::vector<Endpoint> replicas;
      replicas.reserve(topology.remote_replicas[s].size());
      for (const std::string& spec : topology.remote_replicas[s]) {
        Endpoint endpoint;
        std::string error;
        if (!ParseEndpoint(spec, &endpoint, &error)) {
          throw std::runtime_error("sharded fit: bad replica endpoint '" +
                                   spec + "': " + error);
        }
        replicas.push_back(std::move(endpoint));
      }
      if (replicas.empty()) {
        throw std::runtime_error("sharded fit: shard " + std::to_string(s) +
                                 " has no replica endpoints");
      }
      workers_.push_back(std::make_unique<ReplicaShardWorker>(
          plan[s], std::move(replicas), context.corpus_name, metric,
          fingerprint, topology.transport, counters, &corpus, digests_.get()));
    }
    for_each_shard([&](size_t s) {
      static_cast<ReplicaShardWorker&>(*workers_[s]).Connect();
    });
  } else {
    // One spawned child per shard over the same socket transport. Spawn
    // and sync failures (bad command, dead child, fingerprint mismatch)
    // throw — the engine turns that into a structured internal-error
    // response and retires the fit slot.
    for (const ShardRange& range : plan) {
      workers_.push_back(std::make_unique<SocketShardWorker>(
          range, context.corpus_name, metric, fingerprint, topology.transport,
          counters));
    }
    std::vector<Status> started(workers_.size());
    for_each_shard([&](size_t s) {
      auto& worker = static_cast<SocketShardWorker&>(*workers_[s]);
      started[s] = worker.Spawn(topology.worker_command);
      if (started[s].ok()) started[s] = worker.Sync(corpus, digests);
    });
    for (const Status& status : started) {
      if (!status.ok()) {
        throw std::runtime_error("shard worker spawn failed: " +
                                 status.message());
      }
    }
  }
}

Status ShardRanking::Health() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return health_;
}

bool ShardRanking::FanOut(std::span<const float> query, size_t r,
                          std::span<double> dists,
                          std::vector<std::vector<int>>* runs) const {
  runs->resize(workers_.size());
  // Each connection is a single-lane channel and queries arrive
  // concurrently from the pool, so fan-outs serialize. (Serialization
  // also keeps replica failover sane: at most one query is ever in flight
  // when a replica dies.) Within one fan-out, every request is written
  // before any reply is read, so the shards compute at once. Every shard
  // sent to is read, even after another failed, so no connection is left
  // holding a reply the next query would take for its own.
  std::lock_guard<std::mutex> lock(fan_out_mutex_);
  size_t sent = 0;
  while (sent < workers_.size() && workers_[sent]->SendCandidates(query, r)) {
    ++sent;
  }
  bool ok = sent == workers_.size();
  for (size_t s = 0; s < sent; ++s) {
    if (!workers_[s]->ReadCandidates(query, r, dists, &(*runs)[s])) ok = false;
  }
  return ok;
}

bool ShardRanking::Rank(std::span<const float> query, size_t r,
                        std::vector<double>* dists,
                        std::vector<int>* order) const {
  r = std::min(r, rows_);
  ResizeScratch(dists, rows_);
  thread_local std::vector<std::vector<int>> runs;
  bool fanned_out;
  {
    ScopedPhase span(Phase::kShardFanout);
    fanned_out = FanOut(query, r, *dists, &runs);
  }
  // A deadline that fired anywhere in the fan-out (ours, or a worker's
  // propagated deadline_exceeded, whose token can never fire earlier than
  // ours) is the caller's to discard — never a partial merge, and never a
  // latched failure.
  if (CancelRequested()) return true;
  if (!fanned_out) {
    // Worker failure on a live request: latch the first worker's status
    // (Unavailable/Internal).
    Status latched = Status::Unavailable("shard fan-out failed");
    for (const auto& worker : workers_) {
      if (Status health = worker->Health(); !health.ok()) {
        latched = std::move(health);
        break;
      }
    }
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (health_.ok()) health_ = std::move(latched);
    return false;
  }
  ScopedPhase span(Phase::kShardMerge);
  MergeSortedCandidateRuns(*dists, runs, r, order);
  return true;
}

}  // namespace knnshap
