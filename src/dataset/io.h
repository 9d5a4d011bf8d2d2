// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// CSV import/export for datasets, so real feature matrices (e.g. CNN
// embeddings exported from Python) can be valued without recompiling.
//
// Format: one row per point. By default the *last* column is the label
// (classification) or target (regression); every other column is a
// feature. A single optional header line is detected and skipped.

#ifndef KNNSHAP_DATASET_IO_H_
#define KNNSHAP_DATASET_IO_H_

#include <string>

#include "dataset/dataset.h"
#include "util/status.h"

namespace knnshap {

/// How to interpret the trailing column of a CSV file.
enum class CsvTarget {
  kLabel,    ///< Last column is an integer class label.
  kTarget,   ///< Last column is a real-valued regression target.
  kNone,     ///< All columns are features (unlabeled data).
};

/// Result of a load: the dataset plus parse diagnostics.
struct CsvLoadResult {
  Dataset data;
  size_t rows_parsed = 0;
  /// Malformed rows (wrong arity, non-numeric cells, a feature that is not
  /// a finite number in float range, a label that is not a finite number
  /// in int range).
  size_t rows_skipped = 0;
  bool had_header = false;
  /// OK, or the typed fatal failure: not_found for an unreadable file,
  /// invalid_argument for a file with no usable rows — so callers (the
  /// serve load op) map it to a stable wire code without parsing prose.
  Status status;

  bool ok() const { return status.ok(); }
  const std::string& error() const { return status.message(); }
};

/// Converts a label cell to a class label, truncating toward zero. False
/// when `cell` is not finite or its truncation falls outside int range.
bool LabelFromCell(double cell, int* label);

/// Converts a feature cell to the stored float. False when `cell` is NaN,
/// infinite, or beyond float range (it would round to inf): a non-finite
/// feature makes distances NaN, and the (distance, index) order undefined.
bool FeatureFromCell(double cell, float* feature);

/// Loads a dataset from `path`. Rows with the wrong column count or
/// non-numeric cells are skipped and counted, not fatal; an unreadable
/// file or zero usable rows is fatal.
CsvLoadResult LoadCsvDataset(const std::string& path, CsvTarget target);

/// Writes `data` to `path` (features then label/target per row, no
/// header). Returns false on I/O failure.
bool SaveCsvDataset(const Dataset& data, const std::string& path);

/// Writes per-point values next to their row index and (if present) label:
/// columns `index,value[,label]`. Returns false on I/O failure.
bool SaveValuesCsv(const std::vector<double>& values, const Dataset& data,
                   const std::string& path);

}  // namespace knnshap

#endif  // KNNSHAP_DATASET_IO_H_
