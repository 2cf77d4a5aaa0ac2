#include <cstddef>

#include "gemm_tiles.hpp"

#if defined(__x86_64__)
#include <immintrin.h>

// Everything above, the headers included, is baseline code; only the code
// below may use AVX2 and FMA.
#pragma GCC target("avx2,fma")

namespace mbd::tensor::detail::avx2 {
namespace {

// All-ones lanes for j < n: C is read and written through masks, so an edge
// tile runs the same instructions as a full one.
__m256i lanes(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

void merge(float* c, __m256i mask, __m256 acc, float beta) {
  if (beta == 0.0f) {
    _mm256_maskstore_ps(c, mask, acc);
  } else if (beta == 1.0f) {
    _mm256_maskstore_ps(c, mask, _mm256_add_ps(_mm256_maskload_ps(c, mask), acc));
  } else {
    _mm256_maskstore_ps(c, mask,
                        _mm256_fmadd_ps(_mm256_set1_ps(beta),
                                        _mm256_maskload_ps(c, mask), acc));
  }
}

}  // namespace

void Tile::apply(std::size_t kb, const float* __restrict__ ap,
                 const float* __restrict__ bp, float* __restrict__ c,
                 std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                 float beta) {
  static_assert(NR == 16);
  __m256 acc[MR][2];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < MR; ++i)
    acc[i][0] = acc[i][1] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * NR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * NR + 8);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < MR; ++i) {
      const __m256 a = _mm256_broadcast_ss(ap + p * MR + i);
      acc[i][0] = _mm256_fmadd_ps(a, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a, b1, acc[i][1]);
    }
  }
  const __m256i m0 = lanes(nr_eff);
  const __m256i m1 = lanes(nr_eff > 8 ? nr_eff - 8 : 0);
#pragma GCC unroll 8
  for (std::size_t i = 0; i < MR; ++i) {
    if (i < mr_eff) {
      merge(c + i * ldc, m0, acc[i][0], beta);
      if (nr_eff > 8) merge(c + i * ldc + 8, m1, acc[i][1], beta);
    }
  }
}

}  // namespace mbd::tensor::detail::avx2
#endif  // __x86_64__
