#include "mbd/tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "mbd/obs/metrics.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"
#include "mbd/tensor/detail/gemm_kernels.hpp"
#include "mbd/tensor/detail/gemm_packing.hpp"
#include "mbd/tensor/gemm_config.hpp"
#include "gemm_tiles.hpp"

namespace mbd::tensor {
namespace {

using detail::AlignedBuffer;
using detail::GemmArgs;
using detail::GemmKernel;
using detail::GemmOp;
using detail::round_up;

std::atomic<bool> g_shape_metrics{false};
std::atomic<bool> g_dry_run{false};

// One-shot shape logger: every distinct (variant, m, n, k) a process issues
// is recorded once as an obs::Metrics counter (surfacing in bench --json
// records via set_gemm_shape_metrics) and, with MBD_GEMM_LOG_SHAPES set,
// printed once to stderr so any trainer/example run can harvest the shape
// list bench_gemm sweeps. Disabled (the common case) it costs one relaxed
// load per call.
void log_shape_once(const char* variant, std::size_t m, std::size_t n,
                    std::size_t k) {
  // Magic-static init: getenv runs once, before any concurrent caller races.
  static const bool env_enabled =
      std::getenv("MBD_GEMM_LOG_SHAPES") != nullptr;  // NOLINT(concurrency-mt-unsafe)
  const bool metrics = g_shape_metrics.load(std::memory_order_relaxed);
  if (!env_enabled && !metrics) return;
  static std::mutex mu;
  static std::set<std::tuple<std::string, std::size_t, std::size_t, std::size_t>>
      seen;
  const std::lock_guard<std::mutex> lock(mu);
  if (seen.emplace(variant, m, n, k).second) {
    if (metrics) {
      char name[96];
      std::snprintf(name, sizeof name, "gemm.shape.%s m%zu n%zu k%zu", variant,
                    m, n, k);
      obs::Metrics::instance().counter_add(name);
    }
    if (env_enabled) {
      std::fprintf(stderr, "[mbd-gemm-shape] %s m=%zu n=%zu k=%zu\n", variant,
                   m, n, k);
    }
  }
}

void scale_c(float* c, std::size_t ldc, std::size_t m, std::size_t n,
             float beta) {
  if (beta == 1.0f) return;
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(row, row + n, 0.0f);
    } else {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// Shared packed driver over one ISA's register tile (gemm_tiles.hpp). op(A)
// is m×k, op(B) is k×n. `TransA` means A is stored k×m, `TransB` means B is
// stored n×k; the packing routines absorb the transposes so all three
// variants run the same unit-stride tile.
template <class Tile, bool TransA, bool TransB>
void gemm_packed(const GemmArgs& g) {
  constexpr std::size_t MR = Tile::MR, NR = Tile::NR;
  static_assert(Tile::MC % MR == 0 && Tile::NC % NR == 0);
  AlignedBuffer bbuf;
  for (std::size_t jc = 0; jc < g.n; jc += Tile::NC) {
    const std::size_t nb = std::min(Tile::NC, g.n - jc);
    for (std::size_t pc = 0; pc < g.k; pc += Tile::KC) {
      const std::size_t kb = std::min(Tile::KC, g.k - pc);
      const float beta_eff = pc == 0 ? g.beta : 1.0f;
      float* bp = bbuf.ensure(round_up(nb, NR) * kb);
      {
        // Calling-thread site only: the per-thread pack_a inside the omp
        // region below is deliberately uninstrumented (worker registration
        // order is nondeterministic and the span cost is per macro-tile).
        obs::ScopedSpan pack_span(obs::SpanKind::Pack, "pack_b");
        pack_span.set_args(kb, nb);
        detail::pack_b<NR, TransB>(g.b, g.ldb, pc, kb, jc, nb, bp);
      }
      // Threads split the macro-tile (row-block) loop; each packs its own A
      // block into a thread-local buffer and streams the shared B block.
#pragma omp parallel for schedule(static)
      for (std::size_t ic = 0; ic < g.m; ic += Tile::MC) {
        const std::size_t mb = std::min(Tile::MC, g.m - ic);
        static thread_local AlignedBuffer abuf;
        float* ap = abuf.ensure(round_up(mb, MR) * kb);
        detail::pack_a<MR, TransA>(g.a, g.lda, ic, mb, pc, kb, g.alpha, ap);
        for (std::size_t jr = 0; jr < nb; jr += NR) {
          const float* bpanel = bp + (jr / NR) * (kb * NR);
          for (std::size_t ir = 0; ir < mb; ir += MR) {
            Tile::apply(kb, ap + (ir / MR) * (kb * MR), bpanel,
                        g.c + (ic + ir) * g.ldc + jc + jr, g.ldc,
                        std::min(MR, mb - ir), std::min(NR, nb - jr),
                        beta_eff);
          }
        }
      }
    }
  }
}

template <class Tile>
void run_packed(GemmOp op, const GemmArgs& g) {
  switch (op) {
    case GemmOp::NN: return gemm_packed<Tile, false, false>(g);
    case GemmOp::TN: return gemm_packed<Tile, true, false>(g);
    case GemmOp::NT: return gemm_packed<Tile, false, true>(g);
  }
}

template <class Tile>
constexpr GemmKernel kernel_of(bool (*supported)()) {
  return {{Tile::MR, Tile::NR, Tile::MC, Tile::KC, Tile::NC, Tile::kName},
          supported,
          &run_packed<Tile>};
}

constexpr GemmKernel kKernels[] = {
#if defined(__x86_64__)
    kernel_of<detail::avx512::Tile>(
        [] { return __builtin_cpu_supports("avx512f") != 0; }),
    kernel_of<detail::avx2::Tile>([] {
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
    }),
#endif
    kernel_of<detail::sse2::Tile>([] { return true; }),
};

const GemmKernel& select_kernel() {
#if defined(__x86_64__)
  // Selection may run from a static initializer, before libgcc's own.
  __builtin_cpu_init();
#endif
  // The last entry is supported everywhere, so the search always succeeds.
  const GemmKernel& chosen =
      *std::find_if(std::begin(kKernels), std::end(kKernels),
                    [](const GemmKernel& k) { return k.supported(); });
  obs::Metrics::instance().counter_add(std::string("tensor.gemm_kernel.") +
                                       chosen.config.kernel);
  return chosen;
}

void gemm(GemmOp op, const GemmArgs& g) {
  detail::gemm_run(detail::selected_gemm_kernel(), op, g);
}

}  // namespace

void gemm_nn(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha,
             float beta) {
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  MBD_CHECK_EQ(b.rows, k);
  MBD_CHECK_EQ(c.rows, m);
  MBD_CHECK_EQ(c.cols, n);
  log_shape_once("nn", m, n, k);
  obs::ScopedSpan span(obs::SpanKind::Gemm, "nn");
  span.set_args(m * n, k);
  gemm(GemmOp::NN, {a.data, a.ld, b.data, b.ld, c.data, c.ld, m, n, k, alpha, beta});
}

void gemm_tn(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha,
             float beta) {
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  MBD_CHECK_EQ(b.rows, k);
  MBD_CHECK_EQ(c.rows, m);
  MBD_CHECK_EQ(c.cols, n);
  log_shape_once("tn", m, n, k);
  obs::ScopedSpan span(obs::SpanKind::Gemm, "tn");
  span.set_args(m * n, k);
  gemm(GemmOp::TN, {a.data, a.ld, b.data, b.ld, c.data, c.ld, m, n, k, alpha, beta});
}

void gemm_nt(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha,
             float beta) {
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  MBD_CHECK_EQ(b.cols, k);
  MBD_CHECK_EQ(c.rows, m);
  MBD_CHECK_EQ(c.cols, n);
  log_shape_once("nt", m, n, k);
  obs::ScopedSpan span(obs::SpanKind::Gemm, "nt");
  span.set_args(m * n, k);
  gemm(GemmOp::NT, {a.data, a.ld, b.data, b.ld, c.data, c.ld, m, n, k, alpha, beta});
}

const GemmConfig& gemm_config() {
  return detail::selected_gemm_kernel().config;
}

void set_gemm_shape_metrics(bool on) {
  g_shape_metrics.store(on, std::memory_order_relaxed);
}

void set_gemm_dry_run(bool on) {
  g_dry_run.store(on, std::memory_order_relaxed);
}

bool gemm_dry_run() { return g_dry_run.load(std::memory_order_relaxed); }

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm_nn(a, b, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  gemm_tn(a, b, c);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  gemm_nt(a, b, c);
  return c;
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  MBD_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < a.cols(); ++kk)
        acc += a(i, kk) * b(kk, j);
      c(i, j) = acc;
    }
  return c;
}

namespace detail {

std::span<const GemmKernel> gemm_kernels() { return kKernels; }

const GemmKernel& selected_gemm_kernel() {
  static const GemmKernel& kernel = select_kernel();
  return kernel;
}

void gemm_run(const GemmKernel& kernel, GemmOp op, const GemmArgs& g) {
  if (g.m == 0 || g.n == 0) return;
  if (g_dry_run.load(std::memory_order_relaxed)) {
    // Compute elision (static schedule analyzer): zero C without reading
    // A/B. Downstream layers see exact shapes and exact message sizes —
    // payloads flow zero-filled — while the FMA cost disappears.
    scale_c(g.c, g.ldc, g.m, g.n, 0.0f);
    return;
  }
  if (g.k == 0 || g.alpha == 0.0f) {
    scale_c(g.c, g.ldc, g.m, g.n, g.beta);
    return;
  }
  kernel.run(op, g);
}

}  // namespace detail
}  // namespace mbd::tensor
