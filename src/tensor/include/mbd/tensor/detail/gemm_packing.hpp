// Panel packing for the register-blocked GEMM (see gemm.cpp).
//
// Both operands are repacked into microkernel-native layout before any
// arithmetic: A into column-major mr-row panels, B into row-major nr-column
// panels, each padded with zeros to a full microtile so the inner kernel
// never branches on a tail. Packing is where the transpose variants get
// absorbed — a strided read happens once per cache block here instead of
// once per FMA in the inner loop. Only gemm.cpp instantiates these, as
// baseline code, for every ISA's tile.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

namespace mbd::tensor::detail {

inline constexpr std::size_t kGemmAlign = 64;

/// Grow-only 64-byte-aligned float buffer for packed panels.
class AlignedBuffer {
 public:
  float* ensure(std::size_t n) {
    if (n > cap_) {
      data_.reset(static_cast<float*>(
          ::operator new(n * sizeof(float), std::align_val_t{kGemmAlign})));
      cap_ = n;
    }
    return data_.get();
  }

 private:
  struct Deleter {
    void operator()(float* p) const {
      ::operator delete(p, std::align_val_t{kGemmAlign});
    }
  };
  std::unique_ptr<float, Deleter> data_;
  std::size_t cap_ = 0;
};

constexpr std::size_t round_up(std::size_t v, std::size_t mult) {
  return (v + mult - 1) / mult * mult;
}

/// Pack the mb×kb block of op(A) starting at (i0, p0) into mr-row panels:
///   out[(ir/MR)·kb·MR + p·MR + i] = alpha · op(A)(i0+ir+i, p0+p)
/// rows padded with zeros up to the next multiple of MR. Folding alpha into
/// the pack makes it free for the kernel. `Trans` means A is stored k×m
/// (gemm_tn), i.e. op(A)(i, p) = a[p·lda + i].
template <std::size_t MR, bool Trans>
inline void pack_a(const float* a, std::size_t lda, std::size_t i0,
                   std::size_t mb, std::size_t p0, std::size_t kb, float alpha,
                   float* out) {
  for (std::size_t ir = 0; ir < mb; ir += MR) {
    const std::size_t mr_eff = std::min(MR, mb - ir);
    float* panel = out + (ir / MR) * (kb * MR);
    if constexpr (!Trans) {
      for (std::size_t i = 0; i < mr_eff; ++i) {
        const float* src = a + (i0 + ir + i) * lda + p0;
        for (std::size_t p = 0; p < kb; ++p) panel[p * MR + i] = alpha * src[p];
      }
      for (std::size_t i = mr_eff; i < MR; ++i)
        for (std::size_t p = 0; p < kb; ++p) panel[p * MR + i] = 0.0f;
    } else {
      // Storage rows of A are contiguous in i — already the panel layout.
      for (std::size_t p = 0; p < kb; ++p) {
        const float* src = a + (p0 + p) * lda + (i0 + ir);
        for (std::size_t i = 0; i < mr_eff; ++i) panel[p * MR + i] = alpha * src[i];
        for (std::size_t i = mr_eff; i < MR; ++i) panel[p * MR + i] = 0.0f;
      }
    }
  }
}

/// Pack the kb×nb block of op(B) starting at (p0, j0) into nr-column panels:
///   out[(jr/NR)·kb·NR + p·NR + j] = op(B)(p0+p, j0+jr+j)
/// columns padded with zeros up to the next multiple of NR. `Trans` means B
/// is stored n×k (gemm_nt), i.e. op(B)(p, j) = b[j·ldb + p].
template <std::size_t NR, bool Trans>
inline void pack_b(const float* b, std::size_t ldb, std::size_t p0,
                   std::size_t kb, std::size_t j0, std::size_t nb, float* out) {
  for (std::size_t jr = 0; jr < nb; jr += NR) {
    const std::size_t nr_eff = std::min(NR, nb - jr);
    float* panel = out + (jr / NR) * (kb * NR);
    if constexpr (!Trans) {
      for (std::size_t p = 0; p < kb; ++p) {
        const float* src = b + (p0 + p) * ldb + (j0 + jr);
        for (std::size_t j = 0; j < nr_eff; ++j) panel[p * NR + j] = src[j];
        for (std::size_t j = nr_eff; j < NR; ++j) panel[p * NR + j] = 0.0f;
      }
    } else {
      // Each column j of op(B) is a contiguous storage row of B.
      for (std::size_t j = 0; j < nr_eff; ++j) {
        const float* src = b + (j0 + jr + j) * ldb + p0;
        for (std::size_t p = 0; p < kb; ++p) panel[p * NR + j] = src[p];
      }
      for (std::size_t j = nr_eff; j < NR; ++j)
        for (std::size_t p = 0; p < kb; ++p) panel[p * NR + j] = 0.0f;
    }
  }
}

}  // namespace mbd::tensor::detail
