// Dense row-major single-precision matrix.
//
// The paper's formulation is matrix-centric: activations X_i ∈ R^{d_{i-1}×B}
// with one *column* per sample, weights W_i ∈ R^{d_i×d_{i-1}}. Partitioning
// helpers (row/column block extraction and insertion) implement the 1D and
// 1.5D distributions directly on that layout.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mbd/support/rng.hpp"

namespace mbd::tensor {

/// Owning dense matrix of float, row-major.
class Matrix {
 public:
  Matrix() = default;

  /// rows × cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  static Matrix zeros(std::size_t rows, std::size_t cols);
  static Matrix filled(std::size_t rows, std::size_t cols, float value);
  /// Entries ~ N(0, stddev²), drawn row-major from `rng`.
  static Matrix random_normal(std::size_t rows, std::size_t cols, Rng& rng,
                              float stddev);
  /// Build from an explicit row-major buffer (size must be rows*cols).
  static Matrix from_data(std::size_t rows, std::size_t cols,
                          std::vector<float> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  float operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  /// Copy of rows [lo, hi).
  Matrix row_block(std::size_t lo, std::size_t hi) const;
  /// Copy of columns [lo, hi).
  Matrix col_block(std::size_t lo, std::size_t hi) const;
  /// Write `block` into rows starting at `lo`.
  void set_row_block(std::size_t lo, const Matrix& block);
  /// Write `block` into columns starting at `lo`.
  void set_col_block(std::size_t lo, const Matrix& block);

  /// Out-of-place transpose.
  Matrix transposed() const;

  /// Elementwise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float scalar);

  /// Stack blocks left-to-right (equal row counts) — inverse of col_block.
  static Matrix hcat(std::span<const Matrix> blocks);
  /// Stack blocks top-to-bottom (equal col counts) — inverse of row_block.
  static Matrix vcat(std::span<const Matrix> blocks);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Non-owning view of a rows × cols row-major block whose rows start `ld`
/// floats apart (ld ≥ cols): a whole Matrix, a reused scratch buffer, or one
/// sample's channels × pixels inside an NCHW tensor. The GEMM and the conv
/// lowering read and write through these, so callers need not copy into a
/// Matrix first; a Matrix converts implicitly.
struct MatrixRef {
  float* data;
  std::size_t rows, cols, ld;

  MatrixRef(float* d, std::size_t r, std::size_t c) : MatrixRef(d, r, c, c) {}
  MatrixRef(float* d, std::size_t r, std::size_t c, std::size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  MatrixRef(Matrix& m) : MatrixRef(m.data(), m.rows(), m.cols()) {}
};

/// Read-only counterpart of MatrixRef.
struct ConstMatrixRef {
  const float* data;
  std::size_t rows, cols, ld;

  ConstMatrixRef(const float* d, std::size_t r, std::size_t c, std::size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  ConstMatrixRef(const Matrix& m)
      : ConstMatrixRef(m.data(), m.rows(), m.cols(), m.cols()) {}
  ConstMatrixRef(MatrixRef m) : ConstMatrixRef(m.data, m.rows, m.cols, m.ld) {}
};

/// max_ij |a_ij - b_ij|; shapes must match.
float max_abs_diff(const Matrix& a, const Matrix& b);

/// Frobenius norm.
float frobenius_norm(const Matrix& a);

}  // namespace mbd::tensor
