#include <cstddef>

#include "gemm_tiles.hpp"

#if defined(__x86_64__)
#include <immintrin.h>

// Everything above, the headers included, is baseline code; only the code
// below may use AVX-512F.
#pragma GCC target("avx512f")

namespace mbd::tensor::detail::avx512 {
namespace {

// Mask of lanes j < n: C is read and written through masks, so an edge tile
// runs the same instructions as a full one.
__mmask16 lanes(std::size_t n) {
  return n >= 16 ? __mmask16{0xFFFF}
                 : static_cast<__mmask16>((1u << n) - 1u);
}

void merge(float* c, __mmask16 mask, __m512 acc, float beta) {
  if (beta == 0.0f) {
    _mm512_mask_storeu_ps(c, mask, acc);
  } else if (beta == 1.0f) {
    _mm512_mask_storeu_ps(
        c, mask, _mm512_add_ps(_mm512_maskz_loadu_ps(mask, c), acc));
  } else {
    _mm512_mask_storeu_ps(c, mask,
                          _mm512_fmadd_ps(_mm512_set1_ps(beta),
                                          _mm512_maskz_loadu_ps(mask, c), acc));
  }
}

}  // namespace

void Tile::apply(std::size_t kb, const float* __restrict__ ap,
                 const float* __restrict__ bp, float* __restrict__ c,
                 std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                 float beta) {
  static_assert(NR == 32);
  __m512 acc[MR][2];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < MR; ++i)
    acc[i][0] = acc[i][1] = _mm512_setzero_ps();
  for (std::size_t p = 0; p < kb; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * NR);
    const __m512 b1 = _mm512_loadu_ps(bp + p * NR + 16);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < MR; ++i) {
      const __m512 a = _mm512_set1_ps(ap[p * MR + i]);
      acc[i][0] = _mm512_fmadd_ps(a, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(a, b1, acc[i][1]);
    }
  }
  const __mmask16 m0 = lanes(nr_eff);
  const __mmask16 m1 = lanes(nr_eff > 16 ? nr_eff - 16 : 0);
#pragma GCC unroll 8
  for (std::size_t i = 0; i < MR; ++i) {
    if (i < mr_eff) {
      merge(c + i * ldc, m0, acc[i][0], beta);
      if (nr_eff > 16) merge(c + i * ldc + 16, m1, acc[i][1], beta);
    }
  }
}

}  // namespace mbd::tensor::detail::avx512
#endif  // __x86_64__
