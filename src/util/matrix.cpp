// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include "util/matrix.h"

#include "util/common.h"

namespace knnshap {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

void Matrix::AppendRow(std::span<const float> row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  KNNSHAP_CHECK(row.size() == cols_, "row length mismatch");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Matrix::AppendRows(const Matrix& other, size_t begin, size_t end) {
  KNNSHAP_CHECK(begin <= end && end <= other.rows_, "row range out of bounds");
  if (begin == end) return;
  if (rows_ == 0 && cols_ == 0) cols_ = other.cols_;
  KNNSHAP_CHECK(other.cols_ == cols_, "row length mismatch");
  data_.insert(data_.end(), other.data_.begin() + begin * other.cols_,
               other.data_.begin() + end * other.cols_);
  rows_ += end - begin;
}

void Matrix::Scale(double factor) {
  for (auto& x : data_) x = static_cast<float>(x * factor);
}

}  // namespace knnshap
