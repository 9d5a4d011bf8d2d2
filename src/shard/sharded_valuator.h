// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// ShardedValuator — the shard router. A Valuator that fans each query out
// to per-shard workers (in-process, spawned children, or remote replica
// groups — see topology.h, shard_worker.h and socket_worker.h), merges the
// per-shard candidate runs into the global (distance, index) ranking, and
// runs the method's recursion on it — bit-identical to the unsharded
// valuator, because the recursions consume only the ranking and the merge
// of exact per-shard top-R runs *is* the global top-R (knn/selection.h).
//
// Supported methods: exact, exact-corrected, weighted-fast, truncated —
// the distance-ordering family. Per-method fan-out depth r:
//
//   exact            TruncatedExactEffectiveRank(KStar(k, approx_error))
//                    when truncated, else N
//   exact-corrected  TruncatedCorrectedEffectiveRank(...) when truncated
//                    (the N-1 < K labels-only regime skips the fan-out
//                    entirely, exactly like the unsharded path), else N
//   weighted-fast    always N — the DP consumes the full ranking, and the
//                    raw double distances ride along losslessly for the
//                    kernel weights
//   truncated        min(KStar(k, epsilon), N) — the merged prefix plays
//                    the role of the unsharded kd-tree retrieval (exact
//                    top-K* either way), feeding the same truncated
//                    Theorem-2 recursion
//
// Failure semantics: a fan-out that fails on a healthy topology (a worker
// died or answered garbage) latches Health() non-OK and the query returns
// an empty vector — the engine skips empty merges, checks Health() after
// the run, evicts this fitted entry and answers Unavailable + retry; the
// next request re-fits, respawning workers. A partial merge is never
// produced. A local deadline expiry returns right-sized zeros and is
// discarded by the engine's own Expired() check, same as every valuator.

#ifndef KNNSHAP_SHARD_SHARDED_VALUATOR_H_
#define KNNSHAP_SHARD_SHARDED_VALUATOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/wknn_shapley.h"
#include "engine/valuator.h"
#include "knn/distance_kernel.h"
#include "obs/metrics.h"
#include "shard/shard_planner.h"
#include "shard/shard_worker.h"
#include "shard/topology.h"
#include "util/fingerprint.h"

namespace knnshap {

/// True when `method` has a sharded implementation; the engine consults
/// this before rerouting a request, so unsupported methods silently fall
/// back to their unsharded valuator.
bool ShardedValuatorSupports(const std::string& method);

/// The router valuator. Health() reflects the latched worker status.
class ShardedValuator : public Valuator {
 public:
  /// `train_digests` are the corpus's maintained block digests (null: the
  /// fit hashes the corpus itself) — shard identity is content-addressed
  /// through them. `corpus_name` is the store name socket workers hold
  /// the corpus under. `metrics` (nullable) receives the transport
  /// counters.
  ShardedValuator(ValuatorParams params, std::string method,
                  std::shared_ptr<const ShardTopology> topology,
                  std::shared_ptr<const CorpusDigests> train_digests,
                  std::string corpus_name, MetricsRegistry* metrics);

  const char* Method() const override { return method_.c_str(); }
  std::vector<double> ValueOne(const Dataset& test, size_t row) const override;
  Status Health() const override;

 protected:
  void OnFit() override;

 private:
  enum class Kind { kExact, kCorrected, kWeightedFast, kTruncated };

  /// Fan the query out to every worker; false latches health (unless the
  /// failure was a propagated deadline — the caller re-checks the token).
  bool FanOut(std::span<const float> query, size_t r, std::span<double> dists,
              std::vector<std::vector<int>>* runs) const;

  std::string method_;
  Kind kind_;
  std::shared_ptr<const ShardTopology> topology_;
  std::string corpus_name_;
  MetricsRegistry* metrics_;

  std::vector<ShardRange> plan_;
  CorpusNorms norms_;
  std::unique_ptr<WknnCoalitionWeights> coalition_;  // weighted-fast only
  /// Kept alive for remote workers, which re-sync from these digests on
  /// every replica (re)connect.
  std::shared_ptr<const CorpusDigests> digests_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;

  /// Socket fan-outs are serialized: each worker's connection is a
  /// single-lane channel, and queries arrive concurrently from the pool.
  mutable std::mutex fan_out_mutex_;
  mutable std::mutex health_mutex_;
  mutable Status health_;
};

/// Factory the engine calls when a request carries a topology with
/// count > 1: a router for supported methods, null otherwise (caller
/// falls back to the registry's unsharded valuator).
std::unique_ptr<Valuator> MakeShardedValuator(
    const std::string& method, const ValuatorParams& params,
    std::shared_ptr<const ShardTopology> topology,
    std::shared_ptr<const CorpusDigests> train_digests,
    std::string corpus_name, MetricsRegistry* metrics);

}  // namespace knnshap

#endif  // KNNSHAP_SHARD_SHARDED_VALUATOR_H_
