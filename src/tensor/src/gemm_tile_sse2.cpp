#include <cstddef>

#include "gemm_tiles.hpp"

namespace mbd::tensor::detail::sse2 {

// Rank-1 updates over the shared dimension into `acc` (registers: both trip
// counts are compile-time constants), then one merge into C.
void Tile::apply(std::size_t kb, const float* __restrict__ ap,
                 const float* __restrict__ bp, float* __restrict__ c,
                 std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                 float beta) {
  alignas(64) float acc[MR * NR] = {};
  for (std::size_t p = 0; p < kb; ++p) {
    const float* __restrict__ a = ap + p * MR;
    const float* __restrict__ b = bp + p * NR;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < MR; ++i) {
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) acc[i * NR + j] += a[i] * b[j];
    }
  }
  for (std::size_t i = 0; i < mr_eff; ++i) {
    const float* arow = acc + i * NR;
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
#pragma omp simd
      for (std::size_t j = 0; j < nr_eff; ++j) crow[j] = arow[j];
    } else if (beta == 1.0f) {
#pragma omp simd
      for (std::size_t j = 0; j < nr_eff; ++j) crow[j] += arow[j];
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < nr_eff; ++j)
        crow[j] = beta * crow[j] + arow[j];
    }
  }
}

}  // namespace mbd::tensor::detail::sse2
