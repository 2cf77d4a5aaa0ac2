// The packed GEMM's kernel table. The public gemm_* functions always run the
// kernel selected_gemm_kernel() returns; tests reach every other kernel the
// host supports through this table to cover each ISA's tile boundaries.
#pragma once

#include <cstddef>
#include <span>

#include "mbd/tensor/gemm_config.hpp"

namespace mbd::tensor::detail {

enum class GemmOp { NN, TN, NT };

/// C = alpha·op(A)·op(B) + beta·C over row-major storage with explicit
/// leading dimensions; op(A) is m×k, op(B) is k×n, C is m×n. Storage shapes
/// as for the public variants: NN A m×k, B k×n; TN A k×m; NT B n×k.
struct GemmArgs {
  const float* a;
  std::size_t lda;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
  std::size_t m, n, k;
  float alpha, beta;
};

struct GemmKernel {
  GemmConfig config;
  /// Whether this CPU can run the kernel. Baseline code: safe to call on
  /// every x86-64 CPU.
  bool (*supported)();
  /// The packed driver over this kernel's tile; call only when supported()
  /// and only through gemm_run, which handles the degenerate shapes.
  void (*run)(GemmOp op, const GemmArgs& g);
};

/// Every kernel built into this binary, widest ISA first.
std::span<const GemmKernel> gemm_kernels();

/// The first supported entry of gemm_kernels(), chosen once per process.
const GemmKernel& selected_gemm_kernel();

/// One GEMM through `kernel`: the same path the public variants take.
void gemm_run(const GemmKernel& kernel, GemmOp op, const GemmArgs& g);

}  // namespace mbd::tensor::detail
