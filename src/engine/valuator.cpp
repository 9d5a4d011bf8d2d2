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

void Valuator::ValueOne(const Dataset& /*test*/, size_t /*row*/,
                        QueryValues* /*out*/) const {
  KNNSHAP_CHECK(false, std::string(Method()) + " is batch-only");
}

void Valuator::MergeInto(std::vector<double>* accumulator,
                         const QueryValues& one_query) const {
  std::vector<double>& sv = *accumulator;
  if (one_query.order.empty()) {
    for (size_t i = 0; i < one_query.values.size(); ++i) sv[i] += one_query.values[i];
    return;
  }
  // By rank: rows outside the order would add +0.0, which changes no bit
  // of an accumulator that starts at +0.0 (see FoldTruncatedExactKnnShapley).
  KNNSHAP_CHECK(one_query.values.size() == one_query.order.size(),
                std::string(Method()) + " has no rank-space fold");
  for (size_t i = 0; i < one_query.order.size(); ++i) {
    sv[static_cast<size_t>(one_query.order[i])] += one_query.values[i];
  }
}

void Valuator::Finalize(std::vector<double>* accumulator,
                        size_t num_queries) const {
  // Same float operation order as the legacy multi-test entry points:
  // divide each component by the query count.
  for (auto& s : *accumulator) s /= static_cast<double>(num_queries);
}

std::vector<double> Valuator::ValueBatch(const Dataset& test) const {
  KNNSHAP_CHECK(SupportsPerQuery(),
                std::string(Method()) + " does not implement ValueBatch");
  // Streaming fold: one resident per-query result, O(N) memory.
  std::vector<double> sv(Train().Size(), 0.0);
  QueryValues one;
  for (size_t j = 0; j < test.Size(); ++j) {
    one.Clear();
    ValueOne(test, j, &one);
    MergeInto(&sv, one);
  }
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
