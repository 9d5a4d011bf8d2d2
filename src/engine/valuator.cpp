// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "engine/valuator.h"

#include "util/common.h"

namespace knnshap {

void Valuator::Fit(std::shared_ptr<const Dataset> train,
                   const ShardContext* shard) {
  KNNSHAP_CHECK(train != nullptr && train->Size() > 0, "empty training set");
  KNNSHAP_CHECK(!Fitted(), "Fit called twice");
  train_ = std::move(train);
  fit_shard_ = shard;
  OnFit();
  fit_shard_ = nullptr;
}

const Dataset& Valuator::Train() const {
  KNNSHAP_CHECK(Fitted(), "Valuator not fitted");
  return *train_;
}

std::vector<double> Valuator::ValueOne(const Dataset& /*test*/, size_t /*row*/) const {
  KNNSHAP_CHECK(false, std::string(Method()) + " is batch-only");
}

void Valuator::MergeInto(std::vector<double>* accumulator,
                         const std::vector<double>& one_query) const {
  for (size_t i = 0; i < accumulator->size(); ++i) {
    (*accumulator)[i] += one_query[i];
  }
}

void Valuator::Finalize(std::vector<double>* accumulator,
                        size_t num_queries) const {
  // Same float operation order as the legacy multi-test entry points:
  // divide each component by the query count.
  for (auto& s : *accumulator) s /= static_cast<double>(num_queries);
}

std::vector<double> Valuator::Merge(
    const std::vector<std::vector<double>>& per_query) const {
  KNNSHAP_CHECK(!per_query.empty(), "no per-query values to merge");
  std::vector<double> sv(Train().Size(), 0.0);
  for (const auto& row : per_query) MergeInto(&sv, row);
  Finalize(&sv, per_query.size());
  return sv;
}

std::vector<double> Valuator::ValueBatch(const Dataset& test) const {
  KNNSHAP_CHECK(SupportsPerQuery(),
                std::string(Method()) + " does not implement ValueBatch");
  // Streaming fold: one resident per-query vector, O(N) memory.
  std::vector<double> sv(Train().Size(), 0.0);
  for (size_t j = 0; j < test.Size(); ++j) MergeInto(&sv, ValueOne(test, j));
  Finalize(&sv, test.Size());
  return sv;
}

std::vector<double> Valuator::Value(const Dataset& test) const {
  KNNSHAP_CHECK(Fitted(), "Valuator not fitted");
  KNNSHAP_CHECK(test.Size() > 0, "empty test set");
  KNNSHAP_CHECK(test.Dim() == Train().Dim(), "test dimension mismatch");
  return ValueBatch(test);
}

}  // namespace knnshap
