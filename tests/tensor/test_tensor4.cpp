#include "mbd/tensor/tensor4.hpp"

#include <gtest/gtest.h>

#include "mbd/support/check.hpp"

namespace mbd::tensor {
namespace {

Tensor4 iota(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  Tensor4 t(n, c, h, w);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(i);
  return t;
}

TEST(Tensor4, NchwLayout) {
  Tensor4 t = iota(2, 3, 4, 5);
  // Width runs fastest, then height, channel, batch (paper Fig. 3 caption).
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 1, 0), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 1, 0, 0), 20.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0, 0, 0), 60.0f);
}

TEST(Tensor4, HeightSlabRoundTrip) {
  Tensor4 t = iota(2, 3, 8, 4);
  Tensor4 slab = t.height_slab(2, 5);
  EXPECT_EQ(slab.h(), 3u);
  EXPECT_FLOAT_EQ(slab.at(1, 2, 0, 3), t.at(1, 2, 2, 3));
  Tensor4 back(2, 3, 8, 4);
  back.set_height_slab(2, slab);
  EXPECT_FLOAT_EQ(back.at(1, 2, 4, 1), t.at(1, 2, 4, 1));
  EXPECT_FLOAT_EQ(back.at(0, 0, 0, 0), 0.0f);
}

TEST(Tensor4, SlabPartitionReassembles) {
  Tensor4 t = iota(1, 2, 6, 3);
  Tensor4 out(1, 2, 6, 3);
  for (int p = 0; p < 3; ++p) {
    const std::size_t lo = static_cast<std::size_t>(p) * 2;
    out.set_height_slab(lo, t.height_slab(lo, lo + 2));
  }
  EXPECT_FLOAT_EQ(max_abs_diff(t, out), 0.0f);
}

TEST(Tensor4, BoundsChecked) {
  Tensor4 t(1, 1, 4, 4);
  EXPECT_THROW(t.height_slab(2, 6), Error);
  Tensor4 slab(1, 1, 2, 4);
  EXPECT_THROW(t.set_height_slab(3, slab), Error);
}

TEST(Tensor4, MaxAbsDiff) {
  Tensor4 a = iota(1, 1, 2, 2);
  Tensor4 b = iota(1, 1, 2, 2);
  b.at(0, 0, 1, 1) += 2.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 2.5f);
}

TEST(Tensor4, RandomNormalDeterministic) {
  Rng r1(8), r2(8);
  Tensor4 a = Tensor4::random_normal(1, 2, 3, 4, r1, 1.0f);
  Tensor4 b = Tensor4::random_normal(1, 2, 3, 4, r2, 1.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(Tensor4, ColumnsToNchwAndBack) {
  // d = 3·5·9 = 135 crosses the transpose's row blocks unevenly.
  const std::size_t c = 3, h = 5, w = 9, batch = 3, d = c * h * w;
  Matrix m(d, batch);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t b = 0; b < batch; ++b)
      m(i, b) = static_cast<float>(i * 10 + b);
  Tensor4 t(batch, c, h, w);
  columns_to_nchw(m, t);
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t i = 0; i < d; ++i)
      ASSERT_EQ(t.data()[b * d + i], m(i, b)) << "b " << b << " i " << i;
  Matrix back(d, batch);
  nchw_to_columns(t, back);
  EXPECT_FLOAT_EQ(max_abs_diff(m, back), 0.0f);
}

TEST(Tensor4, EnsureShapeKeepsOrReallocates) {
  Tensor4 t = iota(1, 2, 3, 4);
  t.ensure_shape(1, 2, 3, 4);
  EXPECT_FLOAT_EQ(t.at(0, 1, 2, 3), 23.0f);  // same shape: contents kept
  t.ensure_shape(2, 2, 3, 4);
  EXPECT_EQ(t.n(), 2u);
  EXPECT_FLOAT_EQ(t.at(0, 1, 2, 3), 0.0f);  // new shape: zero-filled
  EXPECT_EQ(t.sample_matrix(1).data, t.data() + t.offset(1, 0, 0, 0));
  EXPECT_EQ(t.sample_matrix(1).rows, 2u);
  EXPECT_EQ(t.sample_matrix(1).cols, 12u);
}

}  // namespace
}  // namespace mbd::tensor
