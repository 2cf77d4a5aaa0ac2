// Register microtiles of the packed GEMM, one per SIMD ISA. Each Tile fixes
// the register tile (MR × NR) and its cache blocks, and its apply() is the
// only code built for that ISA: the driver in gemm.cpp that packs panels
// and calls apply() is baseline code, instantiated once per Tile. The ISA
// namespaces tag every function that may use wider registers, which is what
// the ISA portability test (tests/tensor/check_isa_portability.py) checks.
#pragma once

#include <cstddef>

namespace mbd::tensor::detail {

// Every Tile::apply computes, for i < mr_eff and j < nr_eff,
//   C[i·ldc + j] = beta·C[i·ldc + j] + Σ_p ap[p·MR + i]·bp[p·NR + j]
// with C written (not read) when beta == 0. The sum runs over p in order and
// each C element gets the same arithmetic wherever it sits in the tile, so
// C(i, j) never depends on n, m or the tile edges.

// Baseline x86-64: sixteen 4-float registers hold twelve accumulators.
namespace sse2 {
struct Tile {
  static constexpr std::size_t MR = 6, NR = 8;
  static constexpr std::size_t MC = 132, KC = 256, NC = 2048;
  static constexpr const char* kName = "sse2-6x8";
  static void apply(std::size_t kb, const float* ap, const float* bp, float* c,
                    std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                    float beta);
};
}  // namespace sse2

// AVX2 + FMA: twelve 8-float accumulators, two B vectors and one broadcast
// fill fifteen of the sixteen ymm registers.
namespace avx2 {
struct Tile {
  static constexpr std::size_t MR = 6, NR = 16;
  static constexpr std::size_t MC = 132, KC = 256, NC = 2048;
  static constexpr const char* kName = "avx2-6x16";
  static void apply(std::size_t kb, const float* ap, const float* bp, float* c,
                    std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                    float beta);
};
}  // namespace avx2

// AVX-512F: sixteen 16-float accumulators of the thirty-two zmm registers.
// Taller tiles (12×32, 14×32) spill; a shorter one (6×32) slows the n = 1
// serving GEMM.
namespace avx512 {
struct Tile {
  static constexpr std::size_t MR = 8, NR = 32;
  static constexpr std::size_t MC = 128, KC = 256, NC = 2048;
  static constexpr const char* kName = "avx512-8x32";
  static void apply(std::size_t kb, const float* ap, const float* bp, float* c,
                    std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                    float beta);
};
}  // namespace avx512

}  // namespace mbd::tensor::detail
