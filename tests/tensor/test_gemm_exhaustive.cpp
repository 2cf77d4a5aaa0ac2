// Exhaustive shape sweep for the packed GEMM, run once per kernel the host
// supports (detail::gemm_kernels()): every m,n,k around that kernel's
// register-tile boundaries (mr, nr) plus odd and coprime sizes, all three
// variants, and the (alpha, beta) pairs the trainers use, checked against a
// naive reference kept here (independent of the library's matmul_reference,
// which has no alpha/beta). This is the test that pins the packing/edge-tail
// logic; it runs under the ASan/UBSan CI matrix like every other test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "mbd/support/rng.hpp"
#include "mbd/tensor/detail/gemm_kernels.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/gemm_config.hpp"

namespace mbd::tensor {
namespace {

using detail::GemmArgs;
using detail::GemmKernel;
using detail::GemmOp;

std::vector<const GemmKernel*> supported_kernels() {
  std::vector<const GemmKernel*> out;
  for (const GemmKernel& k : detail::gemm_kernels())
    if (k.supported()) out.push_back(&k);
  return out;
}

Matrix random(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::random_normal(r, c, rng, 1.0f);
}

// Storage shapes: NN A m×k, B k×n;  TN A k×m, B k×n;  NT A m×k, B n×k.
std::pair<Matrix, Matrix> operands(GemmOp op, std::size_t m, std::size_t n,
                                   std::size_t k, std::uint64_t seed) {
  switch (op) {
    case GemmOp::NN: return {random(m, k, seed), random(k, n, seed + 1)};
    case GemmOp::TN: return {random(k, m, seed), random(k, n, seed + 1)};
    case GemmOp::NT: return {random(m, k, seed), random(n, k, seed + 1)};
  }
  return {};
}

// op(A) rows [i0, i0 + m) times op(B) cols [j0, j0 + n) into C(i0, j0),
// through `kernel`; A, B and C are addressed in place via leading dims.
void gemm_block(const GemmKernel& kernel, GemmOp op, const Matrix& a,
                const Matrix& b, Matrix& c, std::size_t i0, std::size_t m,
                std::size_t j0, std::size_t n, float alpha, float beta) {
  const bool ta = op == GemmOp::TN, tb = op == GemmOp::NT;
  const std::size_t k = ta ? a.rows() : a.cols();
  const GemmArgs g{a.data() + (ta ? i0 : i0 * a.cols()), a.cols(),
                   b.data() + (tb ? j0 * b.cols() : j0), b.cols(),
                   c.data() + i0 * c.cols() + j0, c.cols(),
                   m, n, k, alpha, beta};
  detail::gemm_run(kernel, op, g);
}

// Max |gemm - naive| over the output for one case.
float run_case(const GemmKernel& kernel, GemmOp op, std::size_t m,
               std::size_t n, std::size_t k, float alpha, float beta,
               std::uint64_t seed) {
  const auto [a, b] = operands(op, m, n, k, seed);
  const Matrix c0 = random(m, n, seed + 2);
  Matrix c = c0;
  gemm_block(kernel, op, a, b, c, 0, m, 0, n, alpha, beta);
  float worst = 0.0f;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = op == GemmOp::TN ? a(p, i) : a(i, p);
        const float bv = op == GemmOp::NT ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      const float want = alpha * acc + beta * c0(i, j);
      worst = std::max(worst, std::abs(c(i, j) - want));
    }
  }
  return worst;
}

// Sizes straddling every tail boundary of one kernel: the microtile edges
// (mr, nr), one below/above each, and odd sizes with no relation to any
// block size.
std::vector<std::size_t> boundary_sizes(const GemmConfig& cfg) {
  std::vector<std::size_t> s{1,          2,          cfg.mr - 1,
                             cfg.mr,     cfg.mr + 1, cfg.nr - 1,
                             cfg.nr,     cfg.nr + 1, 2 * cfg.nr + 1,
                             31,         67};
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

constexpr std::array<std::pair<float, float>, 3> kAlphaBeta{
    {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 2.0f}}};

void sweep(GemmOp op, const char* tag) {
  for (const GemmKernel* kernel : supported_kernels()) {
    const auto sizes = boundary_sizes(kernel->config);
    for (std::size_t m : sizes) {
      for (std::size_t n : sizes) {
        for (std::size_t k : sizes) {
          for (std::size_t ab = 0; ab < kAlphaBeta.size(); ++ab) {
            const auto [alpha, beta] = kAlphaBeta[ab];
            const auto seed =
                static_cast<std::uint64_t>(((m * 73 + n) * 73 + k) * 4 + ab);
            const float tol = 1e-4f * static_cast<float>(k + 1);
            ASSERT_LE(run_case(*kernel, op, m, n, k, alpha, beta, seed), tol)
                << kernel->config.kernel << " " << tag << " m=" << m
                << " n=" << n << " k=" << k << " alpha=" << alpha
                << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(GemmExhaustive, NnSweep) { sweep(GemmOp::NN, "nn"); }
TEST(GemmExhaustive, TnSweep) { sweep(GemmOp::TN, "tn"); }
TEST(GemmExhaustive, NtSweep) { sweep(GemmOp::NT, "nt"); }

TEST(GemmExhaustive, AlphaZeroOnlyScalesC) {
  // alpha == 0 must not touch A·B at all (fast path) — only scale C.
  const Matrix a = random(9, 13, 1), b = random(13, 7, 2);
  const Matrix c0 = random(9, 7, 3);
  Matrix c = c0;
  gemm_nn(a, b, c, 0.0f, 0.5f);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 7; ++j)
      ASSERT_FLOAT_EQ(c(i, j), 0.5f * c0(i, j));
}

TEST(GemmExhaustive, BetaZeroOverwritesGarbage) {
  // beta == 0 must overwrite, not accumulate into, whatever C holds — huge
  // values would otherwise poison the result.
  const Matrix a = random(18, 19, 4), b = random(19, 17, 5);
  Matrix c = Matrix::filled(18, 17, 1e30f);
  gemm_nn(a, b, c, 1.0f, 0.0f);
  const Matrix ref = matmul_reference(a, b);
  EXPECT_LE(max_abs_diff(c, ref), 1e-3f);
}

TEST(GemmExhaustive, SameMatrixBothOperands) {
  // A aliased as both operands (e.g. Gram matrices): packing must read both
  // before any write lands in C. Square so all variants are shape-legal.
  const Matrix a = random(23, 23, 6);
  Matrix c(23, 23);
  gemm_nn(a, a, c);
  EXPECT_LE(max_abs_diff(c, matmul_reference(a, a)), 1e-3f);
  gemm_nt(a, a, c);
  EXPECT_LE(max_abs_diff(c, matmul_reference(a, a.transposed())), 1e-3f);
  gemm_tn(a, a, c);
  EXPECT_LE(max_abs_diff(c, matmul_reference(a.transposed(), a)), 1e-3f);
}

TEST(GemmExhaustive, ConfigIsSane) {
  // The process runs the widest kernel the CPU reports, and the table lists
  // the widest first.
  const char* widest = "sse2-6x8";
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f"))
    widest = "avx512-8x32";
  else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    widest = "avx2-6x16";
#endif
  const GemmConfig& cfg = gemm_config();
  EXPECT_STREQ(cfg.kernel, widest);
  EXPECT_EQ(&cfg, &detail::selected_gemm_kernel().config);
  EXPECT_EQ(&detail::selected_gemm_kernel(), supported_kernels().front());
  for (const GemmKernel& k : detail::gemm_kernels()) {
    EXPECT_EQ(k.config.mc % k.config.mr, 0u) << k.config.kernel;
    EXPECT_EQ(k.config.nc % k.config.nr, 0u) << k.config.kernel;
    EXPECT_GE(k.config.kc, 1u) << k.config.kernel;
  }
}

// C(i, j) must not depend on n or on how the rows are split: serving relies
// on a batch of 8 giving the same logits as eight batches of 1, and the
// row-partitioned trainers on a row block giving the rows of the full C.
// gtest prints the value parameter into each discovered test name, so it
// prints the kernel's name: a bare pointer would print an address that moves
// with the binary's layout and ASLR, renaming the test from build to build.
struct KernelParam {
  const GemmKernel* kernel;
  friend void PrintTo(const KernelParam& p, std::ostream* os) {
    *os << p.kernel->config.kernel;
  }
};

std::vector<KernelParam> kernel_params() {
  std::vector<KernelParam> out;
  for (const GemmKernel* k : supported_kernels()) out.push_back({k});
  return out;
}

class GemmKernelBits : public ::testing::TestWithParam<KernelParam> {};

TEST_P(GemmKernelBits, IndependentOfNAndRowSplit) {
  const GemmKernel& kernel = *GetParam().kernel;
  // k crosses a kc block so the beta-then-accumulate merge is covered too.
  const std::size_t m = 2 * kernel.config.mr + 3, n = 2 * kernel.config.nr + 5,
                    k = kernel.config.kc + 37;
  for (GemmOp op : {GemmOp::NN, GemmOp::TN, GemmOp::NT}) {
    for (const auto& [alpha, beta] : kAlphaBeta) {
      SCOPED_TRACE(testing::Message()
                   << "op=" << static_cast<int>(op) << " alpha=" << alpha
                   << " beta=" << beta);
      const auto [a, b] = operands(op, m, n, k, 11);
      const Matrix c0 = random(m, n, 12);
      Matrix full = c0;
      gemm_block(kernel, op, a, b, full, 0, m, 0, n, alpha, beta);
      Matrix cols = c0, rows = c0;
      for (std::size_t j0 = 0, w = 1; j0 < n; j0 += w, w += 4)
        gemm_block(kernel, op, a, b, cols, 0, m, j0, std::min(w, n - j0),
                   alpha, beta);
      for (std::size_t i0 = 0, h = 1; i0 < m; i0 += h, h += 2)
        gemm_block(kernel, op, a, b, rows, i0, std::min(h, m - i0), 0, n,
                   alpha, beta);
      EXPECT_EQ(std::memcmp(cols.data(), full.data(), m * n * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(rows.data(), full.data(), m * n * sizeof(float)),
                0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GemmKernelBits, ::testing::ValuesIn(kernel_params()),
    [](const auto& info) {
      std::string name = info.param.kernel->config.kernel;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace mbd::tensor
