#include "mbd/nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "mbd/support/check.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/im2col.hpp"
#include "mbd/tensor/ops.hpp"

namespace mbd::nn {

using tensor::Matrix;

namespace {

std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ b * 0xC2B2AE3D27D4EB4FULL ^
                    c * 0x165667B19E3779F9ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

// --- FullyConnected --------------------------------------------------------

FullyConnected::FullyConnected(std::string name, std::size_t d_in,
                               std::size_t d_out, Rng& rng)
    : name_(std::move(name)),
      w_(Matrix::random_normal(d_out, d_in, rng,
                               std::sqrt(2.0f / static_cast<float>(d_in)))),
      dw_(d_out, d_in) {}

FullyConnected::FullyConnected(std::string name, Matrix w)
    : name_(std::move(name)), dw_(w.rows(), w.cols()), x_() {
  w_ = std::move(w);
}

Matrix FullyConnected::forward(const Matrix& x) {
  MBD_CHECK_EQ(x.rows(), w_.cols());
  x_ = x;
  return tensor::matmul(w_, x);  // Y = W X
}

Matrix FullyConnected::backward(const Matrix& dy) {
  MBD_CHECK_EQ(dy.rows(), w_.rows());
  MBD_CHECK_EQ(dy.cols(), x_.cols());
  tensor::gemm_nt(dy, x_, dw_);        // ∆W = ∆Y Xᵀ
  return tensor::matmul_tn(w_, dy);    // ∆X = Wᵀ ∆Y
}

// --- Conv2D ----------------------------------------------------------------

Conv2D::Conv2D(std::string name, const tensor::ConvGeom& geom, Rng& rng)
    : name_(std::move(name)),
      geom_(geom),
      w_(Matrix::random_normal(
          geom.out_c, geom.in_c * geom.kernel_h * geom.kernel_w, rng,
          std::sqrt(2.0f / static_cast<float>(geom.in_c * geom.kernel_h *
                                              geom.kernel_w)))),
      dw_(w_.rows(), w_.cols()) {}

Conv2D::Conv2D(std::string name, const tensor::ConvGeom& geom, Matrix w)
    : name_(std::move(name)), geom_(geom) {
  MBD_CHECK_EQ(w.rows(), geom.out_c);
  MBD_CHECK_EQ(w.cols(), geom.in_c * geom.kernel_h * geom.kernel_w);
  w_ = std::move(w);
  dw_ = Matrix(w_.rows(), w_.cols());
}

Matrix Conv2D::forward(const Matrix& x) {
  MBD_CHECK_EQ(x.rows(), geom_.in_c * geom_.in_h * geom_.in_w);
  const std::size_t batch = x.cols();
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  x_.ensure_shape(batch, geom_.in_c, geom_.in_h, geom_.in_w);
  tensor::columns_to_nchw(x, x_);
  out_.ensure_shape(batch, geom_.out_c, oh, ow);
  if (cols_.empty()) cols_ = Matrix(geom_.col_rows(), geom_.col_cols());
  for (std::size_t b = 0; b < batch; ++b) {
    tensor::im2col(x_, b, geom_, cols_);
    tensor::gemm_nn(w_, cols_, out_.sample_matrix(b));  // out_c × (oh·ow)
  }
  Matrix y(geom_.out_c * oh * ow, batch);
  tensor::nchw_to_columns(out_, y);
  return y;
}

Matrix Conv2D::backward(const Matrix& dy) {
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::size_t batch = x_.n();
  MBD_CHECK_EQ(dy.rows(), geom_.out_c * oh * ow);
  MBD_CHECK_EQ(dy.cols(), batch);
  out_.ensure_shape(batch, geom_.out_c, oh, ow);
  tensor::columns_to_nchw(dy, out_);
  dx_.ensure_shape(batch, geom_.in_c, geom_.in_h, geom_.in_w);
  std::fill(dx_.span().begin(), dx_.span().end(), 0.0f);
  std::fill(dw_.span().begin(), dw_.span().end(), 0.0f);
  for (std::size_t b = 0; b < batch; ++b) {
    tensor::im2col(x_, b, geom_, cols_);
    const tensor::ConstMatrixRef dys = out_.sample_matrix(b);
    tensor::gemm_nt(dys, cols_, dw_, 1.0f, 1.0f);  // ∆W += ∆Y_s colsᵀ
    // ∆W is done with this sample's columns: Wᵀ ∆Y_s overwrites them.
    tensor::gemm_tn(w_, dys, cols_);
    tensor::col2im_add(cols_, dx_, b, geom_);
  }
  Matrix dx(geom_.in_c * geom_.in_h * geom_.in_w, batch);
  tensor::nchw_to_columns(dx_, dx);
  return dx;
}

// --- ReLU ------------------------------------------------------------------

Matrix ReLU::forward(const Matrix& x) {
  x_ = x;
  Matrix y(x.rows(), x.cols());
  tensor::relu_forward(x.span(), y.span());
  return y;
}

Matrix ReLU::backward(const Matrix& dy) {
  MBD_CHECK_EQ(dy.rows(), x_.rows());
  MBD_CHECK_EQ(dy.cols(), x_.cols());
  Matrix dx(dy.rows(), dy.cols());
  tensor::relu_backward(x_.span(), dy.span(), dx.span());
  return dx;
}

// --- MaxPool2D ---------------------------------------------------------------

MaxPool2D::MaxPool2D(std::string name, const tensor::ConvGeom& geom)
    : name_(std::move(name)), geom_(geom) {
  MBD_CHECK_EQ(geom.in_c, geom.out_c);
  d_in_ = geom.in_c * geom.in_h * geom.in_w;
}

Matrix MaxPool2D::forward(const Matrix& x) {
  MBD_CHECK_EQ(x.rows(), d_in_);
  batch_ = x.cols();
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  out_dim_ = geom_.in_c * oh * ow;
  Matrix y(out_dim_, batch_);
  argmax_.assign(out_dim_ * batch_, 0);
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t c = 0; c < geom_.in_c; ++c) {
      for (std::size_t py = 0; py < oh; ++py) {
        for (std::size_t px = 0; px < ow; ++px) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < geom_.kernel_h; ++ky) {
            const std::size_t iy = py * geom_.stride + ky;
            if (iy >= geom_.in_h) continue;
            for (std::size_t kx = 0; kx < geom_.kernel_w; ++kx) {
              const std::size_t ix = px * geom_.stride + kx;
              if (ix >= geom_.in_w) continue;
              const std::size_t idx = (c * geom_.in_h + iy) * geom_.in_w + ix;
              const float v = x(idx, b);
              if (v > best) {
                best = v;
                best_idx = idx;
              }
            }
          }
          const std::size_t o = (c * oh + py) * ow + px;
          y(o, b) = best;
          argmax_[o * batch_ + b] = static_cast<std::uint32_t>(best_idx);
        }
      }
    }
  }
  return y;
}

Matrix MaxPool2D::backward(const Matrix& dy) {
  MBD_CHECK_EQ(dy.rows(), out_dim_);
  MBD_CHECK_EQ(dy.cols(), batch_);
  Matrix dx(d_in_, batch_);
  for (std::size_t o = 0; o < out_dim_; ++o)
    for (std::size_t b = 0; b < batch_; ++b)
      dx(argmax_[o * batch_ + b], b) += dy(o, b);
  return dx;
}

// --- Dropout -----------------------------------------------------------------

Dropout::Dropout(std::string name, double drop_prob, std::uint64_t seed)
    : name_(std::move(name)), drop_prob_(drop_prob), seed_(seed) {
  MBD_CHECK(drop_prob >= 0.0 && drop_prob < 1.0);
}

bool Dropout::kept(std::uint64_t iteration, std::uint64_t sample,
                   std::uint64_t unit) const {
  const std::uint64_t h = hash3(seed_ ^ iteration, sample + 1, unit + 1);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u >= drop_prob_;
}

void Dropout::set_batch_context(std::uint64_t iteration,
                                std::uint64_t sample_offset) {
  iteration_ = iteration;
  sample_offset_ = sample_offset;
}

Matrix Dropout::forward(const Matrix& x) {
  mask_ = Matrix(x.rows(), x.cols());
  const float scale = static_cast<float>(1.0 / (1.0 - drop_prob_));
  for (std::size_t u = 0; u < x.rows(); ++u)
    for (std::size_t b = 0; b < x.cols(); ++b)
      mask_(u, b) = kept(iteration_, sample_offset_ + b, u) ? scale : 0.0f;
  Matrix y(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    y.data()[i] = x.data()[i] * mask_.data()[i];
  return y;
}

Matrix Dropout::backward(const Matrix& dy) {
  MBD_CHECK_EQ(dy.rows(), mask_.rows());
  MBD_CHECK_EQ(dy.cols(), mask_.cols());
  Matrix dx(dy.rows(), dy.cols());
  for (std::size_t i = 0; i < dy.size(); ++i)
    dx.data()[i] = dy.data()[i] * mask_.data()[i];
  return dx;
}

}  // namespace mbd::nn
