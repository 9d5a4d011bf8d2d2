// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "core/utility.h"

#include <algorithm>
#include <numeric>

#include "util/common.h"
#include "util/thread_pool.h"

namespace knnshap {

double SubsetUtility::GrandValue() const {
  std::vector<int> everyone(static_cast<size_t>(NumPlayers()));
  std::iota(everyone.begin(), everyone.end(), 0);
  return Value(everyone);
}

std::vector<double> MeanOverQueries(
    size_t num_queries, size_t width, bool parallel,
    const std::function<std::vector<double>(size_t)>& one) {
  KNNSHAP_CHECK(num_queries > 0, "empty test set");
  std::vector<std::vector<double>> per_query(num_queries);
  auto run_one = [&](size_t j) { per_query[j] = one(j); };
  if (parallel) {
    ThreadPool::Shared().ParallelForHelping(num_queries, run_one);
  } else {
    for (size_t j = 0; j < num_queries; ++j) run_one(j);
  }
  std::vector<double> mean(width, 0.0);
  for (const auto& row : per_query) {
    for (size_t i = 0; i < width; ++i) mean[i] += row[i];
  }
  for (auto& s : mean) s /= static_cast<double>(num_queries);
  return mean;
}

KnnSubsetUtility::KnnSubsetUtility(const Dataset* train, const Dataset* test, int k,
                                   KnnTask task, WeightConfig weights)
    : train_(train), test_(test), k_(k), task_(task), weights_(weights) {
  KNNSHAP_CHECK(train != nullptr && test != nullptr, "null dataset");
  KNNSHAP_CHECK(k >= 1, "k must be >= 1");
  KNNSHAP_CHECK(test->Size() > 0, "empty test set");
  if (task == KnnTask::kClassification || task == KnnTask::kWeightedClassification) {
    KNNSHAP_CHECK(train->HasLabels() && test->HasLabels(), "labels required");
  } else {
    KNNSHAP_CHECK(train->HasTargets() && test->HasTargets(), "targets required");
  }
}

int KnnSubsetUtility::NumPlayers() const { return static_cast<int>(train_->Size()); }

double KnnSubsetUtility::Value(std::span<const int> subset) const {
  double total = 0.0;
  for (size_t j = 0; j < test_->Size(); ++j) {
    auto query = test_->features.Row(j);
    switch (task_) {
      case KnnTask::kClassification:
        total += UnweightedKnnClassUtility(*train_, subset, query, test_->labels[j], k_);
        break;
      case KnnTask::kWeightedClassification:
        total += WeightedKnnClassUtility(*train_, subset, query, test_->labels[j], k_,
                                         weights_);
        break;
      case KnnTask::kRegression:
        total += UnweightedKnnRegressionUtility(*train_, subset, query,
                                                test_->targets[j], k_);
        break;
      case KnnTask::kWeightedRegression:
        total += WeightedKnnRegressionUtility(*train_, subset, query,
                                              test_->targets[j], k_, weights_);
        break;
    }
  }
  return total / static_cast<double>(test_->Size());
}

SellerSubsetUtility::SellerSubsetUtility(const SubsetUtility* base,
                                         const OwnerAssignment* owners)
    : base_(base), owners_(owners) {
  KNNSHAP_CHECK(base != nullptr && owners != nullptr, "null argument");
  KNNSHAP_CHECK(static_cast<size_t>(base->NumPlayers()) == owners->NumRows(),
                "ownership map size mismatch");
}

int SellerSubsetUtility::NumPlayers() const { return owners_->NumSellers(); }

double SellerSubsetUtility::Value(std::span<const int> sellers) const {
  std::vector<int> rows =
      owners_->RowsOfSellers(std::vector<int>(sellers.begin(), sellers.end()));
  return base_->Value(rows);
}

CompositeSubsetUtility::CompositeSubsetUtility(const SubsetUtility* base)
    : base_(base) {
  KNNSHAP_CHECK(base != nullptr, "null base utility");
}

int CompositeSubsetUtility::NumPlayers() const { return base_->NumPlayers() + 1; }

double CompositeSubsetUtility::Value(std::span<const int> subset) const {
  const int analyst = AnalystId();
  bool has_analyst = false;
  std::vector<int> sellers;
  sellers.reserve(subset.size());
  for (int p : subset) {
    if (p == analyst) {
      has_analyst = true;
    } else {
      sellers.push_back(p);
    }
  }
  // Eq (28): data without computation (or computation without data) is
  // worth nothing.
  if (!has_analyst || sellers.empty()) return 0.0;
  return base_->Value(sellers);
}

CallableUtility::CallableUtility(int num_players,
                                 std::function<double(std::span<const int>)> fn)
    : num_players_(num_players), fn_(std::move(fn)) {
  KNNSHAP_CHECK(num_players >= 1, "need at least one player");
  KNNSHAP_CHECK(fn_ != nullptr, "null utility callable");
}

int CallableUtility::NumPlayers() const { return num_players_; }

double CallableUtility::Value(std::span<const int> subset) const { return fn_(subset); }

}  // namespace knnshap
