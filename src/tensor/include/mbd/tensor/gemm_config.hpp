// Blocking configuration of the packed GEMM kernel (see gemm.cpp).
//
// Every binary carries three register microkernels, one per x86 SIMD ISA:
//
//   kernel        CPU must report   tile   mc × kc × nc
//   avx512-8x32   avx512f           8×32   128 × 256 × 2048
//   avx2-6x16     avx2 and fma      6×16   132 × 256 × 2048
//   sse2-6x8      (x86-64 baseline) 6×8    132 × 256 × 2048
//
// The first time a GEMM runs (or gemm_config() is called) the process picks
// the widest kernel the CPU supports and keeps it for every shape until it
// exits. The same host and binary therefore give the same bits; results
// computed under different kernels may differ in the last bits (FMA
// rounding), and no cross-ISA equality is promised. Each kernel fixes its own
// cache blocks:
//
//   mc × kc  — the packed A block a thread streams from L2 (mc % mr == 0),
//   kc × nr  — the packed B micropanel that stays L1-resident,
//   kc × nc  — the packed B block shared by all threads.
#pragma once

#include <cstddef>

namespace mbd::tensor {

struct GemmConfig {
  std::size_t mr;      ///< microtile rows
  std::size_t nr;      ///< microtile cols
  std::size_t mc;      ///< rows of the packed A block
  std::size_t kc;      ///< shared inner (depth) block
  std::size_t nc;      ///< cols of the packed B block
  const char* kernel;  ///< selected kernel, "<isa>-<mr>x<nr>", e.g. "avx2-6x16"
};

/// The configuration of the kernel this process selected.
const GemmConfig& gemm_config();

}  // namespace mbd::tensor
