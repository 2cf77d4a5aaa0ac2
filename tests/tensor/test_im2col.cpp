#include "mbd/tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "mbd/support/rng.hpp"
#include "mbd/tensor/gemm.hpp"

namespace mbd::tensor {
namespace {

/// Direct (definitional) convolution used as the oracle.
Tensor4 conv_direct(const Tensor4& in, const Matrix& w, const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  Tensor4 out(in.n(), g.out_c, oh, ow);
  for (std::size_t n = 0; n < in.n(); ++n)
    for (std::size_t oc = 0; oc < g.out_c; ++oc)
      for (std::size_t y = 0; y < oh; ++y)
        for (std::size_t x = 0; x < ow; ++x) {
          double acc = 0.0;
          for (std::size_t c = 0; c < g.in_c; ++c)
            for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
              for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(y * g.stride + kh) -
                    static_cast<std::ptrdiff_t>(g.pad);
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                    static_cast<std::ptrdiff_t>(g.pad);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h) ||
                    ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                  continue;
                const std::size_t wi = (c * g.kernel_h + kh) * g.kernel_w + kw;
                acc += static_cast<double>(
                           w(oc, wi)) *
                       in.at(n, c, static_cast<std::size_t>(iy),
                             static_cast<std::size_t>(ix));
              }
          out.at(n, oc, y, x) = static_cast<float>(acc);
        }
  return out;
}

struct GeomCase {
  ConvGeom g;
  const char* name;
};

class Im2ColSweep : public ::testing::TestWithParam<GeomCase> {};

TEST_P(Im2ColSweep, MatmulEqualsDirectConvolution) {
  const ConvGeom g = GetParam().g;
  Rng rng(3);
  Tensor4 in = Tensor4::random_normal(2, g.in_c, g.in_h, g.in_w, rng, 1.0f);
  Matrix w = Matrix::random_normal(g.out_c, g.in_c * g.kernel_h * g.kernel_w,
                                   rng, 1.0f);
  Tensor4 ref = conv_direct(in, w, g);
  for (std::size_t n = 0; n < in.n(); ++n) {
    Matrix cols(g.col_rows(), g.col_cols());
    im2col(in, n, g, cols);
    const Matrix y = matmul(w, cols);
    for (std::size_t oc = 0; oc < g.out_c; ++oc)
      for (std::size_t i = 0; i < g.out_h() * g.out_w(); ++i)
        EXPECT_NEAR(y(oc, i),
                    ref.data()[ref.offset(n, oc, 0, 0) + i], 1e-3f)
            << "sample " << n << " channel " << oc << " pos " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColSweep,
    ::testing::Values(
        GeomCase{{1, 5, 5, 1, 3, 3, 1, 0}, "single_channel_3x3"},
        GeomCase{{3, 8, 8, 4, 3, 3, 1, 1}, "same_pad"},
        GeomCase{{2, 9, 7, 3, 3, 3, 2, 1}, "strided"},
        GeomCase{{4, 6, 6, 8, 1, 1, 1, 0}, "one_by_one"},
        GeomCase{{3, 11, 11, 2, 5, 5, 2, 2}, "alexnet_like_5x5"},
        GeomCase{{1, 10, 10, 2, 3, 3, 3, 0}, "stride3"}),
    [](const auto& info) { return info.param.name; });

TEST(Im2Col, AdjointProperty) {
  // <im2col(x), c> == <x, col2im_add(c)> — col2im is the exact adjoint,
  // which is what makes the conv backward pass correct.
  const ConvGeom g{2, 6, 6, 3, 3, 3, 1, 1};
  Rng rng(4);
  Tensor4 x = Tensor4::random_normal(1, g.in_c, g.in_h, g.in_w, rng, 1.0f);
  Matrix c = Matrix::random_normal(g.in_c * g.kernel_h * g.kernel_w,
                                   g.out_h() * g.out_w(), rng, 1.0f);
  Matrix cols(g.col_rows(), g.col_cols());
  im2col(x, 0, g, cols);
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i)
    lhs += static_cast<double>(cols.data()[i]) * c.data()[i];
  Tensor4 xadj(1, g.in_c, g.in_h, g.in_w);
  col2im_add(c, xadj, 0, g);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x.data()[i]) * xadj.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::abs(lhs) + 1e-3);
}

TEST(Im2Col, PaddingRegionsAreZero) {
  const ConvGeom g{1, 3, 3, 1, 3, 3, 1, 1};
  Tensor4 x(1, 1, 3, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = 1.0f;
  Matrix cols(g.col_rows(), g.col_cols());
  im2col(x, 0, g, cols);
  // Top-left output position: kernel taps above/left of the image are zero.
  EXPECT_FLOAT_EQ(cols(0, 0), 0.0f);  // (kh=0, kw=0) tap at (-1, -1)
  EXPECT_FLOAT_EQ(cols(4, 0), 1.0f);  // centre tap at (0, 0)
}

// --- Bitwise oracle ---------------------------------------------------------
//
// The element-wise lowering the row-run im2col/col2im replaced, in its loop
// order: one bounds test per entry, and col2im adds in (c, kh, kw, y, x)
// order. The lowering moves data only, so it must match these bit for bit.

Matrix reference_im2col(const Tensor4& input, std::size_t n,
                        const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  Matrix cols(g.in_c * g.kernel_h * g.kernel_w, oh * ow);
  for (std::size_t c = 0; c < g.in_c; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            float v = 0.0f;
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w))
              v = input.at(n, c, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix));
            cols(row, y * ow + x) = v;
          }
        }
      }
  return cols;
}

void reference_col2im_add(const Matrix& cols, Tensor4& grad, std::size_t n,
                          const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t c = 0; c < g.in_c; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            grad.at(n, c, static_cast<std::size_t>(iy),
                    static_cast<std::size_t>(ix)) += cols(row, y * ow + x);
          }
        }
      }
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// Random entries with a few signed zeros, whose sign a copy must keep.
Tensor4 oracle_input(std::size_t n, std::size_t c, std::size_t h,
                     std::size_t w, std::uint64_t seed) {
  Rng rng(seed);
  Tensor4 t = Tensor4::random_normal(n, c, h, w, rng, 1.0f);
  for (std::size_t i = 0; i < t.size(); i += 7) t.data()[i] = -0.0f;
  return t;
}

class Im2ColOracle : public ::testing::TestWithParam<GeomCase> {};

TEST_P(Im2ColOracle, LoweringWritesEveryEntryBitwise) {
  const ConvGeom g = GetParam().g;
  const Tensor4 in = oracle_input(2, g.in_c, g.in_h, g.in_w, 5);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // A reused buffer holds stale data: every entry, pad zeros included, must
  // be overwritten.
  Matrix cols = Matrix::filled(g.col_rows(), g.col_cols(), nan);
  for (std::size_t n = 0; n < in.n(); ++n) {
    im2col(in, n, g, cols);
    const Matrix ref = reference_im2col(in, n, g);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_TRUE(same_bits(cols.data()[i], ref.data()[i]))
          << "sample " << n << " row " << i / ref.cols() << " col "
          << i % ref.cols() << ": " << cols.data()[i] << " vs "
          << ref.data()[i];
  }
}

TEST_P(Im2ColOracle, StridedViewAndBandOffset) {
  // Lower rows [row0, row0 + in_h) of a taller tensor into a block whose rows
  // sit ld > cols apart; the gap between rows must stay untouched.
  const ConvGeom g = GetParam().g;
  const std::size_t row0 = 2, gap = 3;
  const Tensor4 tall = oracle_input(1, g.in_c, g.in_h + row0 + 1, g.in_w, 6);
  const Tensor4 band = tall.height_slab(row0, row0 + g.in_h);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t ld = g.col_cols() + gap;
  std::vector<float> buf(g.col_rows() * ld, nan);
  im2col(tall, 0, g, MatrixRef(buf.data(), g.col_rows(), g.col_cols(), ld),
         row0);
  const Matrix ref = reference_im2col(band, 0, g);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    for (std::size_t c = 0; c < ref.cols(); ++c)
      ASSERT_TRUE(same_bits(buf[r * ld + c], ref(r, c)))
          << "row " << r << " col " << c;
    for (std::size_t c = ref.cols(); c < ld; ++c)
      ASSERT_TRUE(std::isnan(buf[r * ld + c])) << "gap written, row " << r;
  }
}

TEST_P(Im2ColOracle, Col2ImAccumulatesBitwise) {
  // Non-zero starting gradient, so the order of the adds shows in the bits.
  const ConvGeom g = GetParam().g;
  Rng rng(7);
  const Matrix cols =
      Matrix::random_normal(g.col_rows(), g.col_cols(), rng, 1.0f);
  Tensor4 grad = oracle_input(2, g.in_c, g.in_h, g.in_w, 8);
  Tensor4 ref = grad;
  col2im_add(cols, grad, 1, g);
  reference_col2im_add(cols, ref, 1, g);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_TRUE(same_bits(grad.data()[i], ref.data()[i]))
        << "element " << i << ": " << grad.data()[i] << " vs "
        << ref.data()[i];
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColOracle,
    ::testing::Values(
        GeomCase{{3, 8, 8, 4, 3, 3, 1, 1}, "same_pad_3x3"},
        GeomCase{{2, 7, 9, 2, 3, 5, 1, 1}, "non_square_kernel"},
        GeomCase{{2, 6, 5, 2, 3, 3, 1, 3}, "pad_equals_kernel"},
        GeomCase{{1, 4, 5, 1, 2, 2, 2, 3}, "pad_beyond_kernel_stride2"},
        GeomCase{{2, 6, 2, 3, 5, 5, 1, 2}, "width_below_kernel"},
        GeomCase{{2, 3, 9, 3, 5, 5, 1, 2}, "height_below_kernel"},
        GeomCase{{3, 9, 7, 2, 3, 3, 2, 1}, "stride2_pad1"},
        GeomCase{{2, 11, 10, 2, 3, 3, 3, 2}, "stride3_pad2"},
        GeomCase{{4, 5, 3, 2, 1, 1, 1, 0}, "one_by_one"},
        GeomCase{{2, 5, 6, 2, 1, 1, 2, 1}, "one_by_one_stride2_pad1"},
        GeomCase{{3, 11, 9, 2, 5, 5, 1, 2}, "five_by_five"},
        GeomCase{{3, 12, 11, 2, 5, 5, 2, 2}, "five_by_five_stride2"},
        GeomCase{{16, 18, 34, 16, 3, 3, 1, 0}, "domain_band_no_pad"}),
    [](const auto& info) { return info.param.name; });

TEST(Im2Col, ConvGeomShapeAlgebra) {
  const ConvGeom g{3, 227, 227, 96, 11, 11, 4, 0};
  EXPECT_EQ(g.out_h(), 55u);
  EXPECT_EQ(g.out_w(), 55u);
  EXPECT_EQ(g.weight_count(), 11u * 11 * 3 * 96);
  EXPECT_EQ(g.col_rows(), 3u * 11 * 11);
  EXPECT_EQ(g.col_cols(), 55u * 55);
}

}  // namespace
}  // namespace mbd::tensor
