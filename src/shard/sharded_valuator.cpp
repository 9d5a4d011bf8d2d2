// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "shard/sharded_valuator.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include <stdexcept>

#include "core/corrected_knn_shapley.h"
#include "core/exact_knn_shapley.h"
#include "core/lsh_knn_shapley.h"  // KStar, TruncatedShapleyFromNeighbors
#include "knn/neighbors.h"
#include "knn/selection.h"
#include "obs/trace.h"
#include "shard/socket_worker.h"
#include "util/cancel.h"
#include "util/common.h"
#include "util/net.h"
#include "util/thread_pool.h"

namespace knnshap {

bool ShardedValuatorSupports(const std::string& method) {
  return method == "exact" || method == "exact-corrected" ||
         method == "weighted-fast" || method == "truncated";
}

ShardedValuator::ShardedValuator(
    ValuatorParams params, std::string method,
    std::shared_ptr<const ShardTopology> topology,
    std::shared_ptr<const CorpusDigests> train_digests, std::string corpus_name,
    MetricsRegistry* metrics)
    : Valuator(std::move(params)),
      method_(std::move(method)),
      topology_(std::move(topology)),
      corpus_name_(std::move(corpus_name)),
      metrics_(metrics),
      digests_(std::move(train_digests)) {
  if (method_ == "exact") {
    kind_ = Kind::kExact;
  } else if (method_ == "exact-corrected") {
    kind_ = Kind::kCorrected;
  } else if (method_ == "truncated") {
    kind_ = Kind::kTruncated;
  } else {
    KNNSHAP_CHECK(method_ == "weighted-fast",
                  "no sharded implementation for method '" + method_ + "'");
    kind_ = Kind::kWeightedFast;
  }
}

void ShardedValuator::OnFit() {
  const Dataset& train = Train();
  KNNSHAP_CHECK(train.HasLabels(), method_ + ": labeled corpus required");
  if (digests_ == nullptr) {
    // No maintained digests (engine used outside the serve layer): one
    // full hash here buys content-addressed shard identity all the same.
    digests_ =
        std::make_shared<const CorpusDigests>(ComputeCorpusDigests(train));
  }
  const CorpusDigests& digests = *digests_;
  const ShardTopology& topology = *topology_;
  plan_ = PlanShards(digests, static_cast<size_t>(std::max(topology.count, 1)));
  norms_ = NormsForMetric(train.features, params_.metric);
  if (kind_ == Kind::kWeightedFast) {
    coalition_ = std::make_unique<WknnCoalitionWeights>(
        static_cast<int>(train.Size()), params_.k);
  }
  workers_.clear();
  workers_.reserve(plan_.size());
  const uint64_t fingerprint = digests.Combined();
  const ShardTransportCounters counters =
      ShardTransportCounters::From(metrics_);
  if (!topology.remote_replicas.empty()) {
    // Remote sockets: one ReplicaShardWorker per planned shard, each with
    // its ordered replica list. Endpoint parse errors throw (bad flag —
    // the engine answers a structured internal error); dial failures do
    // NOT — the eager Connect below is best-effort, so an all-dead
    // topology surfaces as unavailable + retry_after_ms through the
    // normal fan-out health path instead of poisoning the fit.
    if (topology.remote_replicas.size() < plan_.size()) {
      throw std::runtime_error(
          "sharded fit: " + std::to_string(plan_.size()) +
          " planned shards but only " +
          std::to_string(topology.remote_replicas.size()) +
          " remote replica group(s)");
    }
    for (size_t s = 0; s < plan_.size(); ++s) {
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
      auto worker = std::make_unique<ReplicaShardWorker>(
          plan_[s], std::move(replicas), corpus_name_, params_.metric,
          fingerprint, topology.transport, counters, &train, digests_.get());
      worker->Connect();
      workers_.push_back(std::move(worker));
    }
  } else if (!topology.worker_command.empty()) {
    // One spawned child per shard over the same socket transport. Spawn
    // and sync failures (bad command, dead child, fingerprint mismatch)
    // throw — the engine turns that into a structured internal-error
    // response and retires the fit slot.
    for (const ShardRange& range : plan_) {
      auto worker = std::make_unique<SocketShardWorker>(
          range, corpus_name_, params_.metric, fingerprint, topology.transport,
          counters);
      Status status = worker->Spawn(topology.worker_command);
      if (status.ok()) status = worker->Sync(train, digests);
      if (!status.ok()) {
        throw std::runtime_error("shard worker spawn failed: " +
                                 status.message());
      }
      workers_.push_back(std::move(worker));
    }
  } else {
    for (const ShardRange& range : plan_) {
      workers_.push_back(std::make_unique<LocalShardWorker>(
          range, &train, &norms_, params_.metric));
    }
  }
}

Status ShardedValuator::Health() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return health_;
}

bool ShardedValuator::FanOut(std::span<const float> query, size_t r,
                             std::span<double> dists,
                             std::vector<std::vector<int>>* runs) const {
  runs->resize(workers_.size());
  if (topology_->worker_command.empty() && topology_->remote_replicas.empty()) {
    // Thread-per-shard: the caller helps drain shard indices alongside
    // pool workers (ParallelForHelping is safe from pool threads, which is
    // where the engine runs ValueOne). The active token is re-established
    // per helper, same as the block-parallel distance path.
    const CancelToken* token = ActiveCancelToken();
    std::atomic<bool> failed{false};
    ThreadPool::Shared().ParallelForHelping(workers_.size(), [&](size_t s) {
      CancelActivation activation(token);
      if (!workers_[s]->Candidates(query, r, dists, &(*runs)[s])) {
        failed.store(true, std::memory_order_relaxed);
      }
    });
    return !failed.load(std::memory_order_relaxed);
  }
  // Socket workers: each connection is a single-lane channel and queries
  // arrive concurrently from the pool, so fan-outs serialize.
  // (Serialization also keeps replica failover sane: at most one query is
  // ever in flight when a replica dies.)
  std::lock_guard<std::mutex> lock(fan_out_mutex_);
  for (size_t s = 0; s < workers_.size(); ++s) {
    if (!workers_[s]->Candidates(query, r, dists, &(*runs)[s])) return false;
  }
  return true;
}

std::vector<double> ShardedValuator::ValueOne(const Dataset& test,
                                              size_t row) const {
  const Dataset& train = Train();
  const size_t n = train.Size();
  const int test_label = test.HasLabels() ? test.labels[row] : 0;
  const bool truncated = params_.approx_error > 0.0;

  // The corrected N-1 < K regime is labels-only: the unsharded path runs
  // no distance pass there, so neither does the router (no fan-out spans,
  // no worker traffic — bit- and trace-identical).
  if (kind_ == Kind::kCorrected && truncated &&
      static_cast<int>(n) - 1 < params_.k) {
    return TruncatedCorrectedKnnShapleyFromOrder({}, train.labels, test_label,
                                                 params_.k);
  }

  // Fan-out depth: the exact prefix length the unsharded truncated path
  // would retrieve, or the full corpus.
  size_t r = n;
  if (kind_ == Kind::kTruncated) {
    r = std::min(static_cast<size_t>(KStar(params_.k, params_.epsilon)), n);
  } else if (truncated && kind_ == Kind::kExact) {
    r = TruncatedExactEffectiveRank(
        static_cast<size_t>(KStar(params_.k, params_.approx_error)), n,
        params_.k);
  } else if (truncated && kind_ == Kind::kCorrected) {
    r = TruncatedCorrectedEffectiveRank(
        static_cast<size_t>(KStar(params_.k, params_.approx_error)), n,
        params_.k);
  }
  const bool full = r >= n;
  if (full) r = n;

  thread_local std::vector<double> dists;
  thread_local std::vector<std::vector<int>> runs;
  thread_local std::vector<int> order;
  dists.resize(n);

  const std::span<const float> query = test.features.Row(row);
  bool fanned_out;
  {
    ScopedPhase span(Phase::kShardFanout);
    fanned_out = FanOut(query, r, dists, &runs);
  }
  // A deadline that fired anywhere in the fan-out (local poll or a child's
  // propagated deadline_exceeded, whose token can never fire earlier than
  // ours) comes back here: right-sized zeros, discarded by the engine's
  // post-run Expired() check — never a partial merge.
  if (CancelRequested()) return std::vector<double>(n, 0.0);
  if (!fanned_out) {
    // Worker failure on a live request: latch the first worker's status
    // (Unavailable/Internal) and return empty — the engine skips empty
    // merges, reads Health() after the run, evicts this fitted entry and
    // answers the status instead of values.
    Status latched = Status::Unavailable("shard fan-out failed");
    for (const auto& worker : workers_) {
      if (Status health = worker->Health(); !health.ok()) {
        latched = std::move(health);
        break;
      }
    }
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (health_.ok()) health_ = std::move(latched);
    return {};
  }

  {
    ScopedPhase span(Phase::kShardMerge);
    MergeSortedCandidateRuns(dists, runs, r, &order);
  }

  switch (kind_) {
    case Kind::kExact:
      return full ? ExactKnnShapleyFromOrder(order, train.labels, test_label,
                                             params_.k)
                  : TruncatedExactKnnShapleyFromOrder(order, train.labels,
                                                      test_label, params_.k, n);
    case Kind::kCorrected:
      return full ? CorrectedKnnShapleyFromOrder(order, train.labels,
                                                 test_label, params_.k)
                  : TruncatedCorrectedKnnShapleyFromOrder(
                        order, train.labels, test_label, params_.k);
    case Kind::kTruncated: {
      // The merged prefix is the exact global top-r in the same
      // (distance, index) order the unsharded kd-tree retrieval returns,
      // so the Theorem-2 recursion sees identical neighbor/label inputs
      // and the rank scatter produces identical bytes. (The recursion
      // consumes only indices and labels; the distances ride along for
      // interface parity.)
      std::vector<Neighbor> neighbors;
      neighbors.reserve(order.size());
      for (int i : order) {
        neighbors.push_back(
            Neighbor{i, dists[static_cast<size_t>(i)]});
      }
      const std::vector<double> by_rank = TruncatedShapleyFromNeighbors(
          train, neighbors, test_label, params_.k,
          KStar(params_.k, params_.epsilon));
      std::vector<double> sv(n, 0.0);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        sv[static_cast<size_t>(neighbors[i].index)] = by_rank[i];
      }
      return sv;
    }
    case Kind::kWeightedFast: {
      WknnShapleyOptions options;
      options.k = params_.k;
      options.weights = params_.weights;
      options.metric = params_.metric;
      options.weight_bits = params_.weight_bits;
      options.approx_error = params_.approx_error;
      // The raw double distances crossed the shard boundary losslessly
      // (%.17g on the socket transport), so the kernel weights — functions of the
      // exact doubles — match the unsharded context bit for bit.
      WknnQueryContext context = MakeWknnQueryContextFromRanking(
          order, dists, train.labels, test_label, options);
      return WknnShapleyFromContext(context, options, coalition_.get());
    }
  }
  KNNSHAP_CHECK(false, "unreachable");
}

std::unique_ptr<Valuator> MakeShardedValuator(
    const std::string& method, const ValuatorParams& params,
    std::shared_ptr<const ShardTopology> topology,
    std::shared_ptr<const CorpusDigests> train_digests,
    std::string corpus_name, MetricsRegistry* metrics) {
  if (!ShardedValuatorSupports(method)) return nullptr;
  return std::make_unique<ShardedValuator>(
      params, method, std::move(topology), std::move(train_digests),
      std::move(corpus_name), metrics);
}

}  // namespace knnshap
