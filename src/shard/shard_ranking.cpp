// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/shard_ranking.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "knn/distance_kernel.h"
#include "knn/selection.h"
#include "obs/trace.h"
#include "shard/shard_planner.h"
#include "shard/wire.h"
#include "util/cancel.h"
#include "util/common.h"
#include "util/net.h"
#include "util/thread_pool.h"

namespace knnshap {

namespace {

/// Shard `s`'s replicas in failover order: its remote group's endpoints,
/// or the one child the worker command spawns. Throws on a bad topology.
std::vector<ShardPeer> PeersOf(const ShardTopology& topology, size_t s,
                               size_t shards) {
  if (topology.shard_remote.empty()) return {topology.shard_worker_command};
  if (topology.shard_remote.size() < shards) {
    throw std::runtime_error(
        "sharded fit: " + std::to_string(shards) +
        " planned shards but only " +
        std::to_string(topology.shard_remote.size()) +
        " remote replica group(s)");
  }
  std::vector<ShardPeer> peers;
  for (const std::string& spec : topology.shard_remote[s]) {
    Endpoint endpoint;
    std::string error;
    if (!ParseEndpoint(spec, &endpoint, &error)) {
      throw std::runtime_error("sharded fit: bad replica endpoint '" + spec +
                               "': " + error);
    }
    peers.emplace_back(std::move(endpoint));
  }
  if (peers.empty()) {
    throw std::runtime_error("sharded fit: shard " + std::to_string(s) +
                             " has no replica endpoints");
  }
  return peers;
}

}  // namespace

void OrderShardReplies(std::span<const double> dists,
                       std::span<const ShardRange> plan, size_t r,
                       std::vector<std::vector<int>>* runs,
                       std::vector<int>* order) {
  if (r >= dists.size()) {
    ScopedPhase span(Phase::kSort);
    ArgsortDistances(dists, order);
    return;
  }
  ScopedPhase span(Phase::kShardMerge);
  for (size_t s = 0; s < plan.size(); ++s) {
    if (!wire::RepliesWithColumn(r, plan[s].Rows())) continue;
    std::vector<int>& run = (*runs)[s];
    ArgsortDistances(dists.subspan(plan[s].row_begin, plan[s].Rows()), &run);
    for (int& index : run) index += static_cast<int>(plan[s].row_begin);
  }
  MergeSortedCandidateRuns(dists, *runs, r, order);
}

ShardRanking::ShardRanking(const Dataset& corpus, Metric metric,
                           const ShardContext& context)
    : rows_(corpus.Size()), digests_(context.digests) {
  const ShardTopology& topology = *context.topology;
  if (topology.shard_worker_command.empty() &&
      topology.shard_remote.empty()) {
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
  plan_ =
      PlanShards(*digests_, static_cast<size_t>(std::max(topology.shards, 1)));
  const ShardTransportCounters counters =
      ShardTransportCounters::From(context.metrics);
  workers_.reserve(plan_.size());
  for (size_t s = 0; s < plan_.size(); ++s) {
    workers_.push_back(std::make_unique<ShardWorker>(
        plan_[s], PeersOf(topology, s, plan_.size()), context.corpus_name,
        metric, topology.shard_transport, counters, &corpus, digests_.get()));
  }
  // Every shard connects and syncs at once on the shared pool (the caller
  // helps, so this is safe from a pool thread). The fit's trace follows
  // each shard onto its helper thread.
  RequestTrace* trace = ActiveTrace();
  std::vector<Status> connected(workers_.size());
  ThreadPool::Shared().ParallelForHelping(workers_.size(), [&](size_t s) {
    TraceActivation activation(trace);
    connected[s] = workers_[s]->Connect();
  });
  // A spawned child that fails to start or sync is a bad command: the fit
  // throws, and the engine answers a structured internal error and
  // retires the fit slot. A remote group that no dial reached is an
  // outage a retry may outlive: its latched Health() answers unavailable
  // + retry_after_ms on the first fan-out instead of poisoning the fit.
  if (!topology.shard_remote.empty()) return;
  for (const Status& status : connected) {
    if (!status.ok()) {
      throw std::runtime_error("shard worker spawn failed: " +
                               status.message());
    }
  }
}

Status ShardRanking::Health() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return health_;
}

Status ShardRanking::FanOut(std::span<const float> query, size_t r,
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
  if (ok) return Status::Ok();
  for (const auto& worker : workers_) {
    if (!worker->Health().ok()) return worker->Health();
  }
  return Status::Unavailable("shard fan-out failed");
}

bool ShardRanking::Rank(std::span<const float> query, size_t r,
                        std::vector<double>* dists,
                        std::vector<int>* order) const {
  r = std::min(r, rows_);
  ResizeScratch(dists, rows_);
  thread_local std::vector<std::vector<int>> runs;
  Status fanned_out;
  {
    ScopedPhase span(Phase::kShardFanout);
    fanned_out = FanOut(query, r, *dists, &runs);
  }
  // A deadline that fired anywhere in the fan-out (ours, or a worker's
  // propagated deadline_exceeded, whose token can never fire earlier than
  // ours) is the caller's to discard — never a partial ranking, and never
  // a latched failure.
  if (CancelRequested()) return true;
  if (!fanned_out.ok()) {
    // Worker failure on a live request: latch it.
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (health_.ok()) health_ = std::move(fanned_out);
    return false;
  }
  OrderShardReplies(*dists, plan_, r, &runs, order);
  return true;
}

}  // namespace knnshap
