// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// The cooperative-game utility abstraction (Sec 2.1). A SubsetUtility maps
// a coalition of players to a real value nu(S). The enumeration oracle and
// both Monte-Carlo estimators are generic over this interface; the concrete
// implementations wire it to the KNN utilities of Eq (5)/(8)/(25)/(26)/(27),
// to seller-level games (App E.3), and to the composite data+analyst game
// (Eq 28).
//
// Calling Value() re-ranks the subset from scratch — deliberately so: this
// is exactly the "retrain the model on S" cost model of the baseline
// algorithm in Sec 2.2. The improved MC algorithm avoids it via the
// incremental interface in core/improved_mc.h.

#ifndef KNNSHAP_CORE_UTILITY_H_
#define KNNSHAP_CORE_UTILITY_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/owners.h"
#include "knn/knn_classifier.h"
#include "knn/knn_regressor.h"

namespace knnshap {

/// A cooperative game: NumPlayers() players, Value(S) utility of coalition S.
class SubsetUtility {
 public:
  virtual ~SubsetUtility() = default;

  /// Number of players N in the game.
  virtual int NumPlayers() const = 0;

  /// Utility of the coalition (player ids, no duplicates, any order).
  virtual double Value(std::span<const int> subset) const = 0;

  /// Utility of the grand coalition.
  double GrandValue() const;
};

/// Which KNN utility family to evaluate.
enum class KnnTask {
  kClassification,          ///< Eq (5)/(8), unweighted.
  kWeightedClassification,  ///< Eq (26).
  kRegression,              ///< Eq (25), unweighted (negative squared error).
  kWeightedRegression,      ///< Eq (27).
};

/// KNN utility over an explicit test set; the multi-test utility is the
/// mean of per-test utilities (Eq 8), matching the additivity decomposition
/// the exact algorithms exploit. Players are training rows.
class KnnSubsetUtility : public SubsetUtility {
 public:
  /// Both datasets must outlive the utility. `k >= 1`.
  KnnSubsetUtility(const Dataset* train, const Dataset* test, int k, KnnTask task,
                   WeightConfig weights = {});

  int NumPlayers() const override;
  double Value(std::span<const int> subset) const override;

  int K() const { return k_; }
  KnnTask Task() const { return task_; }

 private:
  const Dataset* train_;
  const Dataset* test_;
  int k_;
  KnnTask task_;
  WeightConfig weights_;
};

/// The multi-test value of a per-query valuation (additivity, Eq 8): runs
/// `one(j)` for every query j < num_queries — on the shared pool when
/// `parallel` and there is more than one query, serially otherwise — then
/// sums the dense `width`-long rows in query order from +0.0 and divides
/// each sum by the query count. The order of those float operations is
/// the same on both schedules, so parallel and serial runs agree bit for
/// bit.
std::vector<double> MeanOverQueries(
    size_t num_queries, size_t width, bool parallel,
    const std::function<std::vector<double>(size_t)>& one);

/// Seller-level game (App E.3): player j controls all rows of seller j; the
/// utility of a seller coalition is the row-level utility of the union of
/// their rows.
class SellerSubsetUtility : public SubsetUtility {
 public:
  /// `base` players must be training rows of the assignment's dataset.
  SellerSubsetUtility(const SubsetUtility* base, const OwnerAssignment* owners);

  int NumPlayers() const override;
  double Value(std::span<const int> sellers) const override;

 private:
  const SubsetUtility* base_;
  const OwnerAssignment* owners_;
};

/// Composite game (Eq 28): players 0..N-1 are the base game's players and
/// player N is the analyst C. nu_c(S) = 0 if S excludes the analyst or
/// contains only the analyst; otherwise nu(S \ {C}).
class CompositeSubsetUtility : public SubsetUtility {
 public:
  explicit CompositeSubsetUtility(const SubsetUtility* base);

  int NumPlayers() const override;
  double Value(std::span<const int> subset) const override;

  /// Id of the analyst player.
  int AnalystId() const { return base_->NumPlayers(); }

 private:
  const SubsetUtility* base_;
};

/// Adapts an arbitrary callable to SubsetUtility (used to value non-KNN
/// models, e.g. the logistic-regression game of Fig 16, and in tests).
class CallableUtility : public SubsetUtility {
 public:
  CallableUtility(int num_players, std::function<double(std::span<const int>)> fn);

  int NumPlayers() const override;
  double Value(std::span<const int> subset) const override;

 private:
  int num_players_;
  std::function<double(std::span<const int>)> fn_;
};

}  // namespace knnshap

#endif  // KNNSHAP_CORE_UTILITY_H_
