#include "mbd/parallel/detail/domain_conv.hpp"

#include <algorithm>

#include "mbd/support/check.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/ops.hpp"

namespace mbd::parallel::detail {

using tensor::ConvGeom;
using tensor::Tensor4;

void send_halo(comm::Comm& group, const Tensor4& slab, std::size_t halo) {
  const int p = group.size();
  const int r = group.rank();
  if (halo == 0 || p == 1) return;
  // Buffered sends: the payload is deposited immediately — the caller can
  // compute while the "wire" carries it.
  if (r > 0) {
    const Tensor4 my_top = slab.height_slab(0, halo);
    group.send(r - 1, my_top.span(), /*tag=*/1);
  }
  if (r < p - 1) {
    const Tensor4 my_bottom = slab.height_slab(slab.h() - halo, slab.h());
    group.send(r + 1, my_bottom.span(), /*tag=*/2);
  }
}

std::pair<Tensor4, Tensor4> recv_halo(comm::Comm& group, const Tensor4& slab,
                                      std::size_t halo) {
  const int p = group.size();
  const int r = group.rank();
  Tensor4 top(slab.n(), slab.c(), halo, slab.w());
  Tensor4 bottom(slab.n(), slab.c(), halo, slab.w());
  if (halo == 0 || p == 1) return {std::move(top), std::move(bottom)};
  if (r > 0) {
    const auto rows = group.recv<float>(r - 1, /*tag=*/2);  // neighbour's bottom
    MBD_CHECK_EQ(rows.size(), top.size());
    std::copy(rows.begin(), rows.end(), top.data());
  }
  if (r < p - 1) {
    const auto rows = group.recv<float>(r + 1, /*tag=*/1);  // neighbour's top
    MBD_CHECK_EQ(rows.size(), bottom.size());
    std::copy(rows.begin(), rows.end(), bottom.data());
  }
  return {std::move(top), std::move(bottom)};
}

std::pair<Tensor4, Tensor4> exchange_halo(comm::Comm& group,
                                          const Tensor4& slab,
                                          std::size_t halo) {
  send_halo(group, slab, halo);
  return recv_halo(group, slab, halo);
}

namespace {

/// Write every row of `src` (the slab, or the halo rows a neighbour sent)
/// into the extended slab from row `dst_h0` on, with zeros in the horizontal
/// pad columns. Every entry of those rows is written, so the reused slab
/// needs no zero-fill.
void fill_ext_rows(const Tensor4& src, Tensor4& ext, std::size_t dst_h0) {
  const std::size_t w = src.w(), pad = (ext.w() - w) / 2;
  for (std::size_t b = 0; b < src.n(); ++b)
    for (std::size_t c = 0; c < src.c(); ++c)
      for (std::size_t hh = 0; hh < src.h(); ++hh) {
        float* dst = ext.data() + ext.offset(b, c, dst_h0 + hh, 0);
        std::fill(dst, dst + pad, 0.0f);
        std::copy_n(src.data() + src.offset(b, c, hh, 0), w, dst + pad);
        std::fill(dst + pad + w, dst + ext.w(), 0.0f);
      }
}

/// Rows [h0, h0 + rows) of the extended ∆X slab without its pad columns.
Tensor4 crop_rows(const Tensor4& d_ext, std::size_t h0, std::size_t rows,
                  std::size_t halo) {
  Tensor4 out(d_ext.n(), d_ext.c(), rows, d_ext.w() - 2 * halo);
  for (std::size_t b = 0; b < out.n(); ++b)
    for (std::size_t c = 0; c < out.c(); ++c)
      for (std::size_t hh = 0; hh < rows; ++hh)
        std::copy_n(d_ext.data() + d_ext.offset(b, c, h0 + hh, halo), out.w(),
                    out.data() + out.offset(b, c, hh, 0));
  return out;
}

/// The reused columns block of `l` as a rows × cols matrix.
tensor::MatrixRef cols_block(DomainConvState& l, std::size_t rows,
                             std::size_t cols) {
  // Grow only: the overlapped schedule alternates band sizes every step.
  if (l.cols.size() < rows * cols) l.cols.resize(rows * cols);
  return {l.cols.data(), rows, cols};
}

/// Convolve a horizontal band of the extended slab: input rows
/// [band_lo, band_lo + band_rows + 2·halo) of `ext` produce output rows
/// [band_lo, band_lo + band_rows) of `y`. The band is lowered in place and
/// each sample's GEMM writes straight into its rows of `y`.
void conv_band(DomainConvState& l, const Tensor4& ext, Tensor4& y,
               std::size_t band_lo, std::size_t band_rows) {
  if (band_rows == 0) return;
  const std::size_t halo = l.geom.kernel_h / 2;
  const ConvGeom ge{l.geom.in_c, band_rows + 2 * halo, ext.w(), l.geom.out_c,
                    l.geom.kernel_h, l.geom.kernel_w, 1, 0};
  MBD_CHECK_EQ(ge.out_h(), band_rows);
  MBD_CHECK_EQ(ge.out_w(), y.w());
  const tensor::MatrixRef cols = cols_block(l, ge.col_rows(), ge.col_cols());
  for (std::size_t b = 0; b < ext.n(); ++b) {
    tensor::im2col(ext, b, ge, cols, band_lo);
    // out_c × (band_rows·w), rows one output channel plane apart.
    const tensor::MatrixRef ys(y.data() + y.offset(b, 0, band_lo, 0),
                               l.geom.out_c, ge.col_cols(), y.h() * y.w());
    tensor::gemm_nn(l.w, cols, ys);
  }
}

}  // namespace

Tensor4 domain_conv_forward(comm::Comm& group, DomainConvState& l,
                            const Tensor4& slab) {
  const int p = group.size();
  const std::size_t halo = l.geom.kernel_h / 2;
  MBD_CHECK_MSG(slab.h() >= halo,
                "slab of " << slab.h() << " rows shorter than halo " << halo);
  send_halo(group, slab, halo);

  // Extended slab: explicit vertical halo rows plus horizontal zero pad,
  // cached in `l` for backward.
  Tensor4& ext = l.ext_input;
  ext.ensure_shape(slab.n(), slab.c(), slab.h() + 2 * halo,
                   slab.w() + 2 * halo);
  fill_ext_rows(slab, ext, halo);

  Tensor4& y = l.y_pre;
  y.ensure_shape(slab.n(), l.geom.out_c, slab.h(), slab.w());
  const bool overlap =
      l.overlap_halo && halo > 0 && p > 1 && slab.h() >= 2 * halo;
  if (overlap) {
    // Interior output rows [halo, h−halo) read only this rank's own input
    // rows — compute them while the halo is in flight (paper §2.2).
    conv_band(l, ext, y, halo, slab.h() - 2 * halo);
  }

  // Zero rows at the image boundary, the neighbours' rows elsewhere.
  const auto [top, bottom] = recv_halo(group, slab, halo);
  fill_ext_rows(top, ext, 0);
  fill_ext_rows(bottom, ext, halo + slab.h());

  if (overlap) {
    // Boundary rows now that the halo has arrived.
    conv_band(l, ext, y, 0, halo);
    conv_band(l, ext, y, slab.h() - halo, halo);
  } else {
    conv_band(l, ext, y, 0, slab.h());
  }

  Tensor4 out = y;
  if (l.relu_after) tensor::relu_forward(out.span(), out.span());
  return out;
}

Tensor4 domain_conv_backward(comm::Comm& group, DomainConvState& l,
                             Tensor4 dslab) {
  const int p = group.size();
  const int r = group.rank();
  const std::size_t halo = l.geom.kernel_h / 2;
  const std::size_t h_loc = dslab.h();
  if (l.relu_after)
    tensor::relu_backward(l.y_pre.span(), dslab.span(), dslab.span());
  const ConvGeom ge{l.geom.in_c, h_loc + 2 * halo, dslab.w() + 2 * halo,
                    l.geom.out_c, l.geom.kernel_h, l.geom.kernel_w, 1, 0};
  std::fill(l.dw.span().begin(), l.dw.span().end(), 0.0f);
  Tensor4& d_ext = l.d_ext;
  d_ext.ensure_shape(dslab.n(), ge.in_c, ge.in_h, ge.in_w);
  std::fill(d_ext.span().begin(), d_ext.span().end(), 0.0f);
  const tensor::MatrixRef cols = cols_block(l, ge.col_rows(), ge.col_cols());
  for (std::size_t b = 0; b < dslab.n(); ++b) {
    tensor::im2col(l.ext_input, b, ge, cols);
    const tensor::ConstMatrixRef dys = dslab.sample_matrix(b);
    tensor::gemm_nt(dys, cols, l.dw, 1.0f, 1.0f);
    // ∆W is done with this sample's columns: ∆cols = Wᵀ ∆Y overwrites them.
    tensor::gemm_tn(l.w, dys, cols);
    tensor::col2im_add(cols, d_ext, b, ge);
  }
  // Interior input-gradient slab (horizontal pad columns are discarded).
  Tensor4 dnext = crop_rows(d_ext, halo, h_loc, halo);
  if (halo > 0 && p > 1) {
    // Boundary contributions computed here belong to the neighbours.
    if (r > 0)
      group.send(r - 1, crop_rows(d_ext, 0, halo, halo).span(), /*tag=*/3);
    if (r < p - 1)
      group.send(r + 1, crop_rows(d_ext, halo + h_loc, halo, halo).span(),
                 /*tag=*/4);
    auto accumulate = [&](std::span<const float> rows, std::size_t dst_h0) {
      MBD_CHECK_EQ(rows.size(), dnext.n() * dnext.c() * halo * dnext.w());
      const float* src = rows.data();
      for (std::size_t b = 0; b < dnext.n(); ++b)
        for (std::size_t c = 0; c < dnext.c(); ++c) {
          float* dst = dnext.data() + dnext.offset(b, c, dst_h0, 0);
          for (std::size_t i = 0; i < halo * dnext.w(); ++i) dst[i] += *src++;
        }
    };
    if (r < p - 1) {
      const auto from_below = group.recv<float>(r + 1, /*tag=*/3);
      accumulate(from_below, h_loc - halo);
    }
    if (r > 0) {
      const auto from_above = group.recv<float>(r - 1, /*tag=*/4);
      accumulate(from_above, 0);
    }
  }
  return dnext;
}

Tensor4 gather_slabs(comm::Comm& group, const Tensor4& slab,
                     std::size_t img_h) {
  const int p = group.size();
  // Equal slabs go through Bruck; uneven heights through ring all-gatherv.
  const auto gathered = img_h % static_cast<std::size_t>(p) == 0
                      ? group.allgather(slab.span())
                      : group.allgatherv(slab.span());
  Tensor4 full(slab.n(), slab.c(), img_h, slab.w());
  std::size_t at = 0;
  for (int rr = 0; rr < p; ++rr) {
    const Range r = block_range(img_h, p, rr);
    Tensor4 s(slab.n(), slab.c(), r.size(), slab.w());
    std::copy_n(gathered.begin() + static_cast<std::ptrdiff_t>(at), s.size(),
                s.data());
    at += s.size();
    full.set_height_slab(r.lo, s);
  }
  return full;
}

}  // namespace mbd::parallel::detail
