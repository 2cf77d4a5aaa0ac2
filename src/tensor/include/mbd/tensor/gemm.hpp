// Packed, register-blocked single-precision matrix multiplication.
//
// The three multiplies of DNN training (paper §1):
//   forward:   Y  = W X      -> gemm_nn
//   backward:  ∆X = Wᵀ ∆Y    -> gemm_tn
//   gradient:  ∆W = ∆Y Xᵀ    -> gemm_nt
// All three variants route through one packed driver: A/B are repacked into
// microkernel-native panels (transposes absorbed by the pack), an mr×nr
// register-tiled inner kernel does the FMAs, and OpenMP threads split the
// row-block macro loop. The process picks the inner kernel once, the widest
// of AVX-512, AVX2+FMA and SSE2 its CPU supports, and runs it for every
// shape: the same host and binary give the same bits, and C(i, j) does not
// depend on n or on the row split. gemm_config() (mbd/tensor/gemm_config.hpp)
// reports the selected kernel and its blocking. Set MBD_GEMM_LOG_SHAPES to
// log each distinct shape a process issues once to stderr.
#pragma once

#include "mbd/tensor/matrix.hpp"

namespace mbd::tensor {

/// C = alpha·A·B + beta·C. Shapes: A m×k, B k×n, C m×n. Each operand may be
/// a Matrix or a strided view into a larger buffer (MatrixRef); the bits of
/// C do not depend on the leading dimensions.
void gemm_nn(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c,
             float alpha = 1.0f, float beta = 0.0f);

/// C = alpha·Aᵀ·B + beta·C. Shapes: A k×m, B k×n, C m×n.
void gemm_tn(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c,
             float alpha = 1.0f, float beta = 0.0f);

/// C = alpha·A·Bᵀ + beta·C. Shapes: A m×k, B n×k, C m×n.
void gemm_nt(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c,
             float alpha = 1.0f, float beta = 0.0f);

/// Convenience allocating forms.
Matrix matmul(const Matrix& a, const Matrix& b);         ///< A·B
Matrix matmul_tn(const Matrix& a, const Matrix& b);      ///< Aᵀ·B
Matrix matmul_nt(const Matrix& a, const Matrix& b);      ///< A·Bᵀ

/// Naive triple loop used as the test oracle.
Matrix matmul_reference(const Matrix& a, const Matrix& b);

/// Record every distinct GEMM shape this process issues as an obs::Metrics
/// counter ("gemm.shape.<variant> m<M> n<N> k<K>"), independent of the
/// MBD_GEMM_LOG_SHAPES env var (which additionally prints to stderr for
/// interactive harvesting). The bench JSON sink enables this so shape
/// inventories land in --json records.
void set_gemm_shape_metrics(bool on);

/// Compute elision for the static schedule analyzer (mbd/analysis): while
/// on, every GEMM variant zero-fills C and returns without reading A or B.
/// Shapes still propagate exactly, so communication schedules and message
/// sizes are bit-identical to a real run — only the FLOPs disappear.
/// Process-global; flip only while no GEMMs are in flight.
void set_gemm_dry_run(bool on);
/// Current compute-elision state.
bool gemm_dry_run();

}  // namespace mbd::tensor
