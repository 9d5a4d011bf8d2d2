// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "serve/corpus_store.h"

#include <utility>

namespace knnshap {

CorpusMutation CorpusStore::InstallLocked(const std::string& name, Dataset next,
                                          CorpusDigests digests,
                                          std::optional<size_t> window_begin,
                                          CorpusSnapshot* entry) {
  CorpusMutation result;
  result.old_fingerprint = entry->fingerprint;
  next.name = name;
  entry->data = std::make_shared<const Dataset>(std::move(next));
  entry->digests = std::make_shared<const CorpusDigests>(std::move(digests));
  entry->fingerprint = entry->digests->Combined();
  entry->version += 1;
  entry->window = window_begin.has_value();
  entry->row_begin = window_begin.value_or(0);
  result.snapshot = *entry;
  return result;
}

CorpusSnapshot* CorpusStore::MutableLocked(const std::string& name,
                                           std::string* error) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    *error = "unknown dataset '" + name + "'";
    return nullptr;
  }
  if (it->second.window) {
    *error = "'" + name + "' is a shard window, not a whole corpus";
    return nullptr;
  }
  return &it->second;
}

CorpusMutation CorpusStore::Put(const std::string& name, Dataset data) {
  CorpusDigests digests = ComputeCorpusDigests(data);
  std::lock_guard<std::mutex> lock(mutex_);
  return InstallLocked(name, std::move(data), std::move(digests), std::nullopt,
                       &entries_[name]);
}

CorpusMutation CorpusStore::PutWindow(const std::string& name, Dataset rows,
                                      size_t row_begin) {
  CorpusDigests digests = ComputeCorpusDigests(rows);
  std::lock_guard<std::mutex> lock(mutex_);
  return InstallLocked(name, std::move(rows), std::move(digests), row_begin,
                       &entries_[name]);
}

std::optional<CorpusSnapshot> CorpusStore::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool CorpusStore::Append(const std::string& name, const Dataset& rows,
                         CorpusMutation* out, std::string* error) {
  if (rows.Size() == 0) {
    *error = "append: no rows";
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  CorpusSnapshot* entry = MutableLocked(name, error);
  if (entry == nullptr) return false;
  const Dataset& current = *entry->data;
  if (rows.Dim() != current.Dim()) {
    *error = "append: dimension mismatch (corpus " + std::to_string(current.Dim()) +
             ", rows " + std::to_string(rows.Dim()) + ")";
    return false;
  }
  if (rows.HasLabels() != current.HasLabels() ||
      rows.HasTargets() != current.HasTargets()) {
    *error = "append: label/target schema mismatch";
    return false;
  }

  const size_t old_rows = current.Size();
  // Copy-on-write: readers keep the old version. Sized once, so the
  // corpus is copied once.
  Dataset next;
  next.features.Reserve(old_rows + rows.Size(), current.Dim());
  next.features.AppendRows(current.features);
  next.features.AppendRows(rows.features);
  next.labels.reserve(current.labels.size() + rows.labels.size());
  next.labels.insert(next.labels.end(), current.labels.begin(), current.labels.end());
  next.labels.insert(next.labels.end(), rows.labels.begin(), rows.labels.end());
  next.targets.reserve(current.targets.size() + rows.targets.size());
  next.targets.insert(next.targets.end(), current.targets.begin(), current.targets.end());
  next.targets.insert(next.targets.end(), rows.targets.begin(), rows.targets.end());

  // Incremental: only the trailing (possibly partial) block and the new
  // blocks are rehashed.
  CorpusDigests digests = *entry->digests;
  RehashBlocksFrom(next, old_rows, &digests);
  *out = InstallLocked(name, std::move(next), std::move(digests), std::nullopt,
                       entry);
  return true;
}

bool CorpusStore::RemoveRow(const std::string& name, size_t row, CorpusMutation* out,
                            std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  CorpusSnapshot* entry = MutableLocked(name, error);
  if (entry == nullptr) return false;
  const Dataset& current = *entry->data;
  if (row >= current.Size()) {
    *error = "remove: row " + std::to_string(row) + " out of range (corpus has " +
             std::to_string(current.Size()) + " rows)";
    return false;
  }
  if (current.Size() == 1) {
    *error = "remove: would leave an empty corpus; use drop instead";
    return false;
  }
  std::vector<int> keep;
  keep.reserve(current.Size() - 1);
  for (size_t r = 0; r < current.Size(); ++r) {
    if (r != row) keep.push_back(static_cast<int>(r));
  }
  Dataset next = current.Subset(keep);

  // Blocks before `row`'s block are untouched by the shift-down.
  CorpusDigests digests = *entry->digests;
  RehashBlocksFrom(next, row, &digests);
  *out = InstallLocked(name, std::move(next), std::move(digests), std::nullopt,
                       entry);
  return true;
}

bool CorpusStore::Drop(const std::string& name, uint64_t* old_fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  *old_fingerprint = it->second.fingerprint;
  entries_.erase(it);
  return true;
}

std::vector<std::pair<std::string, CorpusSnapshot>> CorpusStore::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {entries_.begin(), entries_.end()};
}

}  // namespace knnshap
