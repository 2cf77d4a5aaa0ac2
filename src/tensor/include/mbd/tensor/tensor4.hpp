// 4D tensor in NCHW layout (paper Fig. 3: "data runs fastest in width,
// height, channel size, then across batch size").
//
// Used by the convolution layers and by the domain-parallel trainer, which
// partitions along H — the paper's recommended split for NCHW because it
// keeps halo rows contiguous in memory.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mbd/support/rng.hpp"
#include "mbd/tensor/matrix.hpp"

namespace mbd::tensor {

/// Owning NCHW tensor of float.
class Tensor4 {
 public:
  Tensor4() = default;
  Tensor4(std::size_t n, std::size_t c, std::size_t h, std::size_t w);

  static Tensor4 random_normal(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w, Rng& rng, float stddev);

  std::size_t n() const { return n_; }
  std::size_t c() const { return c_; }
  std::size_t h() const { return h_; }
  std::size_t w() const { return w_; }
  std::size_t size() const { return n_ * c_ * h_ * w_; }

  /// Linear offset of (n, c, h, w) in the NCHW buffer.
  std::size_t offset(std::size_t n, std::size_t c, std::size_t h,
                     std::size_t w) const {
    return ((n * c_ + c) * h_ + h) * w_ + w;
  }

  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[offset(n, c, h, w)];
  }
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    return data_[offset(n, c, h, w)];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  /// Keep the buffer if the shape is already n×c×h×w, else reallocate it
  /// zero-filled: scratch tensors reused across steps are sized on first use.
  void ensure_shape(std::size_t n, std::size_t c, std::size_t h,
                    std::size_t w);

  /// Sample `n` as a c × (h·w) matrix, one row per channel (the GEMM operand
  /// of a lowered convolution).
  MatrixRef sample_matrix(std::size_t n) {
    return {data_.data() + offset(n, 0, 0, 0), c_, h_ * w_};
  }

  /// Copy of rows [h_lo, h_hi) across all samples and channels (the domain
  /// partition of Fig. 3).
  Tensor4 height_slab(std::size_t h_lo, std::size_t h_hi) const;
  /// Write a slab back at height offset `h_lo`.
  void set_height_slab(std::size_t h_lo, const Tensor4& slab);

 private:
  std::size_t n_ = 0, c_ = 0, h_ = 0, w_ = 0;
  std::vector<float> data_;
};

/// The paper's d × B layout (one CHW column per sample, d = c·h·w) to NCHW
/// and back. `t` supplies the shape: B × c × h × w.
void columns_to_nchw(const Matrix& m, Tensor4& t);
void nchw_to_columns(const Tensor4& t, Matrix& m);

/// max |a-b| over all elements; shapes must match.
float max_abs_diff(const Tensor4& a, const Tensor4& b);

}  // namespace mbd::tensor
