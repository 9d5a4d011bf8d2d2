// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/shard_worker.h"

#include <utility>

#include "obs/trace.h"
#include "util/fault.h"

namespace knnshap {

ShardWorker::ShardWorker(ShardRange range, std::vector<ShardPeer> peers,
                         std::string corpus_name, Metric metric,
                         SocketWorkerOptions options,
                         ShardTransportCounters counters,
                         const Dataset* corpus, const CorpusDigests* digests)
    : range_(range),
      peers_(std::move(peers)),
      corpus_name_(std::move(corpus_name)),
      metric_(metric),
      options_(options),
      counters_(counters),
      corpus_(corpus),
      digests_(digests) {}

void ShardWorker::LatchAllDead(const Status& last_error) {
  if (!health_.ok()) return;
  health_ = Status::Unavailable(
      "all " + std::to_string(peers_.size()) + " replica(s) of shard [" +
      std::to_string(range_.row_begin) + ", " + std::to_string(range_.row_end) +
      ") are dead; last error: " + last_error.message());
}

Status ShardWorker::Connect() {
  Status last_error = Status::Unavailable("the shard has no replicas");
  for (; active_ < peers_.size(); ++active_) {
    conn_ = std::make_unique<ShardConnection>(range_, corpus_name_, metric_,
                                              options_, counters_);
    last_error = conn_->Open(peers_[active_]);
    if (last_error.ok()) last_error = conn_->Sync(*corpus_, *digests_);
    if (last_error.ok()) return last_error;
  }
  conn_.reset();
  LatchAllDead(last_error);
  return last_error;
}

bool ShardWorker::SendCandidates(std::span<const float> query, size_t r) {
  if (conn_ == nullptr) return false;
  // A failed write latches the connection dead; ReadCandidates then fails
  // over.
  conn_->SendCandidates(query, r);
  return true;
}

bool ShardWorker::ReadCandidates(std::span<const float> query, size_t r,
                                 std::span<double> dists,
                                 std::vector<int>* run) {
  while (!conn_->ReadCandidates(r, dists, run)) {
    // Propagated deadline — the replica is fine, the budget is not.
    if (conn_->Health().ok()) return false;
    const Status cause = conn_->Health();
    conn_.reset();
    if (++active_ == peers_.size()) {
      LatchAllDead(cause);
      return false;
    }
    // The active replica died mid-query. Fail over: open + sync the next
    // one and retry the same query there synchronously. The reply is a
    // pure function of the fingerprint-verified corpus, so the retried
    // answer is byte-identical to what the dead replica would have sent.
    // (Rows the aborted attempt already wrote into `dists` are harmless:
    // the router reads only the rows the retried reply writes — its whole
    // column, or its run's rows.)
    ScopedPhase span(ActiveTrace(), Phase::kShardFailover);
    if (counters_.failovers != nullptr) counters_.failovers->Add(1);
    if (FaultInjectionEnabled() && Fault("shard_failover")) {
      // Chaos hook: the failover target is unreachable too — drive the
      // all-replicas-dead path deterministically.
      LatchAllDead(cause);
      return false;
    }
    if (!Connect().ok()) return false;
    conn_->SendCandidates(query, r);
  }
  return true;
}

}  // namespace knnshap
