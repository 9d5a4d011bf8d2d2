// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "dataset/io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace knnshap {

namespace {

// Splits a CSV line on commas (no quoting support: feature dumps are plain
// numeric tables).
std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream stream(line);
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  return cells;
}

bool ParseDouble(const std::string& text, double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  if (end == begin) return false;
  while (*end == ' ' || *end == '\r' || *end == '\t') ++end;
  return *end == '\0';
}

}  // namespace

CsvTarget TargetOf(const Dataset& data) {
  if (data.HasLabels()) return CsvTarget::kLabel;
  if (data.HasTargets()) return CsvTarget::kTarget;
  return CsvTarget::kNone;
}

const char* CsvTargetName(CsvTarget target) {
  if (target == CsvTarget::kLabel) return "label";
  return target == CsvTarget::kTarget ? "target" : "none";
}

bool CsvTargetFromName(const std::string& name, CsvTarget* out) {
  if (name.empty() || name == "label") {
    *out = CsvTarget::kLabel;
  } else if (name == "target") {
    *out = CsvTarget::kTarget;
  } else if (name == "none") {
    *out = CsvTarget::kNone;
  } else {
    return false;
  }
  return true;
}

bool LabelFromCell(double cell, int* label) {
  // Bounds one past each end: the cast truncates, so (INT_MIN - 1, INT_MAX
  // + 1) is exactly the range it is defined on. NaN fails both compares.
  constexpr double kBelow = std::numeric_limits<int>::min() - 1.0;
  constexpr double kAbove = std::numeric_limits<int>::max() + 1.0;
  if (!(cell > kBelow && cell < kAbove)) return false;
  *label = static_cast<int>(cell);
  return true;
}

bool FeatureFromCell(double cell, float* feature) {
  // NaN fails the compare.
  if (!(std::fabs(cell) <= std::numeric_limits<float>::max())) return false;
  *feature = static_cast<float>(cell);
  return true;
}

CsvLoadResult LoadCsvDataset(const std::string& path, CsvTarget target) {
  CsvLoadResult result;
  std::ifstream in(path);
  if (!in.is_open()) {
    result.status = Status::NotFound("cannot open " + path);
    return result;
  }
  result.data.name = path;

  std::string line;
  bool first_line = true;
  size_t expected_cells = 0;
  std::vector<float> features;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto cells = SplitCells(line);
    if (first_line) {
      // Header detection: if any cell fails to parse as a number, treat the
      // first line as a header.
      bool numeric = true;
      double ignored;
      for (const auto& cell : cells) numeric = numeric && ParseDouble(cell, &ignored);
      first_line = false;
      expected_cells = cells.size();
      if (!numeric) {
        result.had_header = true;
        continue;
      }
    }
    if (cells.size() != expected_cells || cells.empty()) {
      ++result.rows_skipped;
      continue;
    }
    size_t feature_cells =
        target == CsvTarget::kNone ? cells.size() : cells.size() - 1;
    if (feature_cells == 0) {
      ++result.rows_skipped;
      continue;
    }
    features.clear();
    bool row_ok = true;
    for (size_t c = 0; c < feature_cells; ++c) {
      double v;
      float feature;
      if (!ParseDouble(cells[c], &v) || !FeatureFromCell(v, &feature)) {
        row_ok = false;
        break;
      }
      features.push_back(feature);
    }
    double trailing = 0.0;
    if (row_ok && target != CsvTarget::kNone) {
      row_ok = ParseDouble(cells.back(), &trailing);
    }
    int label = 0;
    if (row_ok && target == CsvTarget::kLabel) {
      row_ok = LabelFromCell(trailing, &label);
    }
    if (!row_ok) {
      ++result.rows_skipped;
      continue;
    }
    result.data.features.AppendRow(features);
    if (target == CsvTarget::kLabel) {
      result.data.labels.push_back(label);
    } else if (target == CsvTarget::kTarget) {
      result.data.targets.push_back(trailing);
    }
    ++result.rows_parsed;
  }
  if (result.rows_parsed == 0) {
    result.status = Status::InvalidArgument("no usable rows in " + path);
    return result;
  }
  result.data.Validate();
  return result;
}

bool SaveCsvDataset(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  for (size_t i = 0; i < data.Size(); ++i) {
    auto row = data.features.Row(i);
    for (size_t d = 0; d < row.size(); ++d) {
      if (d) out << ',';
      out << row[d];
    }
    if (data.HasLabels()) {
      out << ',' << data.labels[i];
    } else if (data.HasTargets()) {
      out << ',' << data.targets[i];
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool SaveValuesCsv(const std::vector<double>& values, const Dataset& data,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << (data.HasLabels() ? "index,value,label\n" : "index,value\n");
  for (size_t i = 0; i < values.size(); ++i) {
    out << i << ',' << values[i];
    if (data.HasLabels() && i < data.labels.size()) out << ',' << data.labels[i];
    out << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace knnshap
