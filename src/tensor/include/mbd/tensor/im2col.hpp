// im2col / col2im lowering so convolution runs as the matrix multiply the
// paper's analysis assumes (footnote 1: convolutions are *viewed* as matmuls
// for the communication analysis; im2col makes that literal).
//
// Buffer contract: the caller owns the columns block and may reuse it across
// calls and samples. im2col writes every entry of it, padding zeros
// included, so a reused buffer needs no zero-fill. col2im_add only adds into
// the gradient, so the caller zeroes that once per pass.
#pragma once

#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/tensor4.hpp"

namespace mbd::tensor {

/// Shape parameters of one 2D convolution.
struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel_h = 0, kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  /// Shape of the lowered columns block: (C_in·kh·kw) × (out_h·out_w).
  std::size_t col_rows() const { return in_c * kernel_h * kernel_w; }
  std::size_t col_cols() const { return out_h() * out_w(); }
  /// Weight count |W| = (kh·kw·C_in)·C_out (paper Eq. 2).
  std::size_t weight_count() const {
    return kernel_h * kernel_w * in_c * out_c;
  }
};

/// Lower sample `n` of `input` into `cols`, a col_rows() × col_cols() block.
/// The image is rows [row0, row0 + g.in_h) of `input`, so a band of a taller
/// slab lowers in place; out-of-image taps (padding) are written as zeros.
void im2col(const Tensor4& input, std::size_t n, const ConvGeom& g,
            MatrixRef cols, std::size_t row0 = 0);

/// Scatter-add the col_rows() × col_cols() block `cols` into sample `n` of
/// `grad_input` (adjoint of im2col). Every element receives its terms in
/// (c, kh, kw, y, x) order.
void col2im_add(ConstMatrixRef cols, Tensor4& grad_input, std::size_t n,
                const ConvGeom& g);

}  // namespace mbd::tensor
