#include "mbd/tensor/tensor4.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "mbd/support/check.hpp"

namespace mbd::tensor {

Tensor4::Tensor4(std::size_t n, std::size_t c, std::size_t h, std::size_t w)
    : n_(n), c_(c), h_(h), w_(w), data_(n * c * h * w, 0.0f) {}

Tensor4 Tensor4::random_normal(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w, Rng& rng, float stddev) {
  Tensor4 t(n, c, h, w);
  rng.fill_normal(t.data_, stddev);
  return t;
}

void Tensor4::ensure_shape(std::size_t n, std::size_t c, std::size_t h,
                           std::size_t w) {
  if (n == n_ && c == c_ && h == h_ && w == w_) return;
  *this = Tensor4(n, c, h, w);
}

Tensor4 Tensor4::height_slab(std::size_t h_lo, std::size_t h_hi) const {
  MBD_CHECK_LE(h_lo, h_hi);
  MBD_CHECK_LE(h_hi, h_);
  Tensor4 out(n_, c_, h_hi - h_lo, w_);
  for (std::size_t n = 0; n < n_; ++n)
    for (std::size_t c = 0; c < c_; ++c)
      std::memcpy(out.data() + out.offset(n, c, 0, 0),
                  data() + offset(n, c, h_lo, 0),
                  (h_hi - h_lo) * w_ * sizeof(float));
  return out;
}

void Tensor4::set_height_slab(std::size_t h_lo, const Tensor4& slab) {
  MBD_CHECK_EQ(slab.n(), n_);
  MBD_CHECK_EQ(slab.c(), c_);
  MBD_CHECK_EQ(slab.w(), w_);
  MBD_CHECK_LE(h_lo + slab.h(), h_);
  for (std::size_t n = 0; n < n_; ++n)
    for (std::size_t c = 0; c < c_; ++c)
      std::memcpy(data() + offset(n, c, h_lo, 0),
                  slab.data() + slab.offset(n, c, 0, 0),
                  slab.h() * w_ * sizeof(float));
}

namespace {

/// Rows of the d × B matrix per block of the transpose: the block (64·B
/// floats) stays in L1 while each sample's run of it is written or read.
constexpr std::size_t kTransposeRows = 64;

}  // namespace

void columns_to_nchw(const Matrix& m, Tensor4& t, std::size_t h_lo) {
  const std::size_t plane = t.h() * t.w(), d = t.c() * plane, batch = t.n();
  MBD_CHECK_EQ(m.cols(), batch);
  MBD_CHECK_GT(t.c() * t.w(), 0u);
  MBD_CHECK_EQ(m.rows() % (t.c() * t.w()), 0u);
  const std::size_t full_plane = m.rows() / t.c();  // H·w
  MBD_CHECK_LE(h_lo * t.w() + plane, full_plane);
  // The slab's rows of m are one run of `plane` rows per channel, at stride
  // full_plane; a full-height slab is a single run of all d rows.
  const bool whole = plane == full_plane;
  const std::size_t runs = whole ? 1 : t.c(), run = whole ? d : plane;
  for (std::size_t r = 0; r < runs; ++r) {
    const float* src = m.data() + (r * full_plane + h_lo * t.w()) * batch;
    float* dst = t.data() + r * run;
    for (std::size_t i0 = 0; i0 < run; i0 += kTransposeRows) {
      const std::size_t i1 = std::min(run, i0 + kTransposeRows);
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t i = i0; i < i1; ++i)
          dst[b * d + i] = src[i * batch + b];
    }
  }
}

void nchw_to_columns(const Tensor4& t, Matrix& m) {
  const std::size_t d = t.c() * t.h() * t.w(), batch = t.n();
  MBD_CHECK_EQ(m.rows(), d);
  MBD_CHECK_EQ(m.cols(), batch);
  for (std::size_t i0 = 0; i0 < d; i0 += kTransposeRows) {
    const std::size_t i1 = std::min(d, i0 + kTransposeRows);
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t i = i0; i < i1; ++i)
        m.data()[i * batch + b] = t.data()[b * d + i];
  }
}

float max_abs_diff(const Tensor4& a, const Tensor4& b) {
  MBD_CHECK_EQ(a.size(), b.size());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

}  // namespace mbd::tensor
