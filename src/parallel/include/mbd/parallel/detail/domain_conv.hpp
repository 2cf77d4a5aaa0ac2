// Shared machinery of the domain-decomposed convolution: halo exchange,
// extended-slab construction, and the slab-local forward/backward passes.
// Used by both the pure domain-parallel trainer (Eq. 7) and the fully
// integrated hybrid trainer (Eq. 9).
//
// Internal API — not part of the public surface.
#pragma once

#include <utility>
#include <vector>

#include "mbd/comm/comm.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/tensor/im2col.hpp"
#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/tensor4.hpp"

namespace mbd::parallel::detail {

/// State of one domain-decomposed conv layer on one process.
struct DomainConvState {
  tensor::ConvGeom geom;  ///< full-image geometry (stride 1, same-pad)
  bool relu_after = false;
  /// Overlap the halo exchange with interior compute (paper §2.2: "the
  /// convolutions that do not require this boundary data could be computed
  /// while the communication is being performed"). Results are identical;
  /// only the schedule changes. Requires slab height ≥ 2·halo, else the
  /// blocking path is used for that layer.
  bool overlap_halo = false;
  tensor::Matrix w, dw;       ///< full weights, replicated on every process
  tensor::Tensor4 ext_input;  ///< extended input slab cached for backward
  tensor::Tensor4 y_pre;      ///< pre-activation output slab
  // Scratch reused across steps and sized on the first call: the lowered
  // columns block of one sample (∆columns in backward) and the extended ∆X
  // slab col2im accumulates into.
  std::vector<float> cols;
  tensor::Tensor4 d_ext;
};

/// Post the (buffered, hence non-blocking) halo sends: my top `halo` rows to
/// the up neighbour, bottom rows to the down neighbour.
void send_halo(comm::Comm& group, const tensor::Tensor4& slab,
               std::size_t halo);

/// Receive the halo rows the neighbours sent. Returns {top_rows,
/// bottom_rows}; zero tensors at the image boundary.
std::pair<tensor::Tensor4, tensor::Tensor4> recv_halo(
    comm::Comm& group, const tensor::Tensor4& slab, std::size_t halo);

/// send_halo + recv_halo (the blocking schedule).
std::pair<tensor::Tensor4, tensor::Tensor4> exchange_halo(
    comm::Comm& group, const tensor::Tensor4& slab, std::size_t halo);

/// Forward pass of one conv layer on a height slab. Performs the halo
/// exchange in `group`, caches the extended input and pre-activation in `l`,
/// applies ReLU if configured, and returns the output slab.
tensor::Tensor4 domain_conv_forward(comm::Comm& group, DomainConvState& l,
                                    const tensor::Tensor4& slab);

/// Backward pass of one conv layer on a height slab: overwrites l.dw with
/// this process's *partial* weight gradient (caller must all-reduce it over
/// the processes that share the weights), exchanges boundary input-gradient
/// contributions with the neighbours, and returns ∆X for this slab.
/// `dslab` is the gradient at this layer's output (post-ReLU handled here).
tensor::Tensor4 domain_conv_backward(comm::Comm& group, DomainConvState& l,
                                     tensor::Tensor4 dslab);

/// All-gather the per-process height slabs of the conv output into the full
/// tensor (img_h rows). Slab heights follow block_range(img_h, p, rank):
/// equal slabs go through the all-gather, uneven ones through all-gatherv.
tensor::Tensor4 gather_slabs(comm::Comm& group, const tensor::Tensor4& slab,
                             std::size_t img_h);

}  // namespace mbd::parallel::detail
