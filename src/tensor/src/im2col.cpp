#include "mbd/tensor/im2col.hpp"

#include <algorithm>

#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"

namespace mbd::tensor {
namespace {

/// Output positions [lo, hi) whose tap o·stride + k − pad lands inside
/// [0, extent); every position outside the run reads padding.
struct Run {
  std::size_t lo, hi;
  bool empty() const { return lo == hi; }
};

Run in_image(std::size_t k, std::size_t pad, std::size_t stride,
             std::size_t extent, std::size_t out) {
  const std::size_t lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  const std::size_t hi =
      extent + pad <= k ? 0 : (extent + pad - k + stride - 1) / stride;
  const std::size_t lo_c = std::min(lo, out);
  return {lo_c, std::max(lo_c, std::min(hi, out))};
}

}  // namespace

void im2col(const Tensor4& input, std::size_t n, const ConvGeom& g,
            MatrixRef cols, std::size_t row0) {
  obs::ScopedSpan span(obs::SpanKind::Im2col, "im2col");
  span.set_args(g.col_rows(), g.col_cols());
  MBD_CHECK_EQ(input.c(), g.in_c);
  MBD_CHECK_LE(row0 + g.in_h, input.h());
  MBD_CHECK_EQ(input.w(), g.in_w);
  MBD_CHECK_LT(n, input.n());
  MBD_CHECK_EQ(cols.rows, g.col_rows());
  MBD_CHECK_EQ(cols.cols, g.col_cols());
  const std::size_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    const float* plane = input.data() + input.offset(n, c, row0, 0);
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const Run ys = in_image(kh, g.pad, s, g.in_h, oh);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const Run xs = in_image(kw, g.pad, s, g.in_w, ow);
        // Input column of the run's first tap.
        const std::size_t ix0 = xs.empty() ? 0 : xs.lo * s + kw - g.pad;
        float* out =
            cols.data + ((c * g.kernel_h + kh) * g.kernel_w + kw) * cols.ld;
        std::fill(out, out + ys.lo * ow, 0.0f);
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          float* dst = out + y * ow;
          std::fill(dst, dst + xs.lo, 0.0f);
          if (!xs.empty()) {
            const float* src = plane + (y * s + kh - g.pad) * g.in_w + ix0;
            if (s == 1) {
              std::copy_n(src, xs.hi - xs.lo, dst + xs.lo);
            } else {
              for (std::size_t x = xs.lo; x < xs.hi; ++x)
                dst[x] = src[(x - xs.lo) * s];
            }
          }
          std::fill(dst + xs.hi, dst + ow, 0.0f);
        }
        std::fill(out + ys.hi * ow, out + oh * ow, 0.0f);
      }
    }
  }
}

void col2im_add(ConstMatrixRef cols, Tensor4& grad_input, std::size_t n,
                const ConvGeom& g) {
  obs::ScopedSpan span(obs::SpanKind::Im2col, "col2im_add");
  span.set_args(g.col_rows(), g.col_cols());
  MBD_CHECK_EQ(grad_input.c(), g.in_c);
  MBD_CHECK_EQ(grad_input.h(), g.in_h);
  MBD_CHECK_EQ(grad_input.w(), g.in_w);
  MBD_CHECK_LT(n, grad_input.n());
  MBD_CHECK_EQ(cols.rows, g.col_rows());
  MBD_CHECK_EQ(cols.cols, g.col_cols());
  const std::size_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    float* plane = grad_input.data() + grad_input.offset(n, c, 0, 0);
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const Run ys = in_image(kh, g.pad, s, g.in_h, oh);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const Run xs = in_image(kw, g.pad, s, g.in_w, ow);
        if (xs.empty()) continue;
        const std::size_t ix0 = xs.lo * s + kw - g.pad;
        const float* in =
            cols.data + ((c * g.kernel_h + kh) * g.kernel_w + kw) * cols.ld;
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          float* dst = plane + (y * s + kh - g.pad) * g.in_w + ix0;
          const float* src = in + y * ow + xs.lo;
          const std::size_t len = xs.hi - xs.lo;
          if (s == 1) {
            for (std::size_t x = 0; x < len; ++x) dst[x] += src[x];
          } else {
            for (std::size_t x = 0; x < len; ++x) dst[x * s] += src[x];
          }
        }
      }
    }
  }
}

}  // namespace mbd::tensor
