// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Dense row-major float matrix used to hold feature vectors. Rows are
// feature vectors; the KNN and LSH substrates read them through RowSpan to
// avoid copies on the hot distance path.

#ifndef KNNSHAP_UTIL_MATRIX_H_
#define KNNSHAP_UTIL_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

namespace knnshap {

/// Row-major matrix of floats (features are stored in float to halve memory
/// traffic on multi-million-point benchmarks; all accumulation is in
/// double).
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix initialized to zero.
  Matrix(size_t rows, size_t cols);

  size_t Rows() const { return rows_; }
  size_t Cols() const { return cols_; }
  bool Empty() const { return rows_ == 0; }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Read-only view of row r.
  std::span<const float> Row(size_t r) const {
    return std::span<const float>(data_.data() + r * cols_, cols_);
  }

  /// Mutable view of row r.
  std::span<float> MutableRow(size_t r) {
    return std::span<float>(data_.data() + r * cols_, cols_);
  }

  /// Appends a row; its length must equal Cols() (or set Cols on first row).
  void AppendRow(std::span<const float> row);

  /// Appends every row of `other`; its width must equal Cols() (or set
  /// Cols on first row).
  void AppendRows(const Matrix& other) { AppendRows(other, 0, other.Rows()); }

  /// Appends rows [begin, end) of `other`, as AppendRows(other) does.
  void AppendRows(const Matrix& other, size_t begin, size_t end);

  /// Capacity for `rows` rows of `cols` values, so AppendRow does not
  /// regrow the storage.
  void Reserve(size_t rows, size_t cols) { data_.reserve(rows * cols); }

  /// Scales every entry by `factor` (used to normalize D_mean = 1 before
  /// LSH, as in the proof of Theorem 3).
  void Scale(double factor);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace knnshap

#endif  // KNNSHAP_UTIL_MATRIX_H_
