// One lowering for both conv paths: on a single process the slab-local
// domain conv (detail::domain_conv_*) and the sequential nn::Conv2D + ReLU
// must produce the same bits for y, ∆W and ∆X. Both lower with im2col and
// run the same per-sample GEMMs; col2im accumulates every ∆X element in the
// same (c, kh, kw, y, x) order whether the target is padded or not. At one
// rank the overlapped halo schedule falls back to the blocking one; the
// two-rank case runs it.
#include "mbd/parallel/detail/domain_conv.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "mbd/comm/world.hpp"
#include "mbd/nn/layers.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/support/rng.hpp"

namespace mbd::parallel {
namespace {

using tensor::ConvGeom;
using tensor::Matrix;
using tensor::Tensor4;

/// d × B matrix (one CHW column per sample) -> NCHW tensor.
Tensor4 to_nchw(const Matrix& m, std::size_t c, std::size_t h, std::size_t w) {
  Tensor4 t(m.cols(), c, h, w);
  for (std::size_t b = 0; b < m.cols(); ++b)
    for (std::size_t i = 0; i < m.rows(); ++i)
      t.data()[b * m.rows() + i] = m(i, b);
  return t;
}

void expect_same_bits(std::span<const float> a, std::span<const float> b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  std::size_t diffs = 0, first = a.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      if (diffs++ == 0) first = i;
    }
  }
  EXPECT_EQ(diffs, 0u) << what << ": first differing element " << first
                       << " (" << (first < a.size() ? a[first] : 0.0f)
                       << " vs " << (first < b.size() ? b[first] : 0.0f)
                       << ")";
}

class OneLowering
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(OneLowering, DomainConvAtOneRankEqualsConv2DReLU) {
  const auto [k, overlap] = GetParam();
  // Non-square image, batch > 1, channel counts that are not tile multiples.
  const ConvGeom g{3, 9, 7, 5, k, k, 1, k / 2};
  const std::size_t batch = 3;
  Rng rng(21);
  const Matrix w = Matrix::random_normal(
      g.out_c, g.in_c * g.kernel_h * g.kernel_w, rng, 0.5f);
  const Matrix x = Matrix::random_normal(g.in_c * g.in_h * g.in_w, batch, rng,
                                         1.0f);
  const Matrix dy = Matrix::random_normal(g.out_c * g.in_h * g.in_w, batch,
                                          rng, 1.0f);

  nn::Conv2D conv("conv", g, w);
  nn::ReLU relu("relu");
  const Matrix y_ref = relu.forward(conv.forward(x));
  const Matrix dx_ref = conv.backward(relu.backward(dy));

  comm::World world(1);
  world.run([&, k = k, overlap = overlap](comm::Comm& c) {
    detail::DomainConvState st;
    st.geom = g;
    st.relu_after = true;
    st.overlap_halo = overlap;
    st.w = w;
    st.dw = Matrix(w.rows(), w.cols());
    // Two steps: the second runs on the buffers the first one sized.
    for (int step = 0; step < 2; ++step) {
      SCOPED_TRACE("kernel " + std::to_string(k) + " step " +
                   std::to_string(step));
      const Tensor4 y =
          detail::domain_conv_forward(c, st, to_nchw(x, g.in_c, g.in_h, g.in_w));
      expect_same_bits(y.span(),
                       to_nchw(y_ref, g.out_c, g.in_h, g.in_w).span(), "y");
      const Tensor4 dx = detail::domain_conv_backward(
          c, st, to_nchw(dy, g.out_c, g.in_h, g.in_w));
      expect_same_bits(st.dw.span(), conv.grads(), "dW");
      expect_same_bits(dx.span(),
                       to_nchw(dx_ref, g.in_c, g.in_h, g.in_w).span(), "dX");
    }
  });
}

TEST_P(OneLowering, SlabOutputsAtTwoRanksEqualConv2DRows) {
  // Across ranks ∆W and ∆X are summed in another order, but each output
  // pixel is still one GEMM column over the same lowered values: every
  // rank's slab of y matches the sequential rows bit for bit, whether the
  // bands are written through the strided view (overlapped) or not.
  const auto [k, overlap] = GetParam();
  const ConvGeom g{3, 9, 7, 5, k, k, 1, k / 2};
  const std::size_t batch = 3;
  Rng rng(22);
  const Matrix w = Matrix::random_normal(
      g.out_c, g.in_c * g.kernel_h * g.kernel_w, rng, 0.5f);
  const Matrix x = Matrix::random_normal(g.in_c * g.in_h * g.in_w, batch, rng,
                                         1.0f);
  nn::Conv2D conv("conv", g, w);
  nn::ReLU relu("relu");
  const Tensor4 y_ref =
      to_nchw(relu.forward(conv.forward(x)), g.out_c, g.in_h, g.in_w);
  const Tensor4 x_full = to_nchw(x, g.in_c, g.in_h, g.in_w);

  comm::World world(2);
  world.run([&, overlap = overlap](comm::Comm& c) {
    const Range rows = block_range(g.in_h, c.size(), c.rank());
    detail::DomainConvState st;
    st.geom = g;
    st.relu_after = true;
    st.overlap_halo = overlap;
    st.w = w;
    st.dw = Matrix(w.rows(), w.cols());
    const Tensor4 slab = x_full.height_slab(rows.lo, rows.hi);
    for (int step = 0; step < 2; ++step) {
      const Tensor4 y = detail::domain_conv_forward(c, st, slab);
      expect_same_bits(y.span(), y_ref.height_slab(rows.lo, rows.hi).span(),
                       "y slab");
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, OneLowering,
    ::testing::Combine(::testing::Values(std::size_t{3}, std::size_t{5}),
                       ::testing::Bool()),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_overlapped" : "_blocking");
    });

}  // namespace
}  // namespace mbd::parallel
