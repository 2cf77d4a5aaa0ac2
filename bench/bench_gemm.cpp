// Microbenchmarks of the three DNN-training gemm kernels (forward W·X,
// gradient ∆Y·Xᵀ, backward Wᵀ·∆Y) over the shapes the trainers actually
// emit, plus the im2col/conv substrate.
//
// Shape provenance: run any trainer with MBD_GEMM_LOG_SHAPES=1 to harvest
// the (variant, m, n, k) set from gemm.cpp's one-shot logger. The headline
// cases here are the full-size AlexNet FC layers (9216→4096→4096→1000 at
// batch 128/512, paper Table 1) and im2col-lowered conv shapes; the small
// cases keep granularity for quick regressions.
//
// Every case records {flop, bytes} counters that `--json <path>` turns into
// the committed BENCH_gemm.json baseline guarded by CI (docs/benchmarks.md).
#include <benchmark/benchmark.h>

#include "mbd/nn/layers.hpp"
#include "mbd/support/rng.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/im2col.hpp"
#include "microbench_json.hpp"

namespace {

using namespace mbd::tensor;

Matrix rand_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  mbd::Rng rng(seed);
  return Matrix::random_normal(r, c, rng, 1.0f);
}

// m×k · k×n work/traffic counters: "GFLOP/s" for the console, plain "flop"
// and "bytes" per iteration for the JSON records.
void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t n,
                       std::size_t k) {
  const double flop = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flop * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["flop"] = benchmark::Counter(flop);
  state.counters["bytes"] = benchmark::Counter(
      4.0 * (static_cast<double>(m * k) + static_cast<double>(k * n) +
             2.0 * static_cast<double>(m * n)));
}

// Forward Y = W·X: args {m, k, n} = {d_out, d_in, B} for FC layers, or the
// im2col-lowered {C_out, C_in·KH·KW, H_out·W_out} for conv layers.
void BM_GemmNN(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const Matrix w = rand_matrix(m, k, 1);
  const Matrix x = rand_matrix(k, n, 2);
  Matrix y(m, n);
  for (auto _ : state) {
    gemm_nn(w, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  set_gemm_counters(state, m, n, k);
}
BENCHMARK(BM_GemmNN)
    ->Args({128, 128, 32})
    ->Args({512, 512, 64})
    // AlexNet FC forward: fc6 (9216→4096), fc7 (4096→4096), fc8 (4096→1000).
    ->Args({4096, 9216, 128})
    ->Args({4096, 4096, 128})
    ->Args({1000, 4096, 128})
    ->Args({4096, 4096, 512})
    // AlexNet conv1/conv2/conv3 lowered via im2col, one sample.
    ->Args({96, 363, 3025})
    ->Args({256, 2400, 729})
    ->Args({384, 2304, 169});

// Gradient ∆W = ∆Y·Xᵀ: args {m, n, k} = {d_out, d_in, B}.
void BM_GemmNT(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const Matrix dy = rand_matrix(m, k, 3);
  const Matrix x = rand_matrix(n, k, 4);
  Matrix dw(m, n);
  for (auto _ : state) {
    gemm_nt(dy, x, dw);
    benchmark::DoNotOptimize(dw.data());
  }
  set_gemm_counters(state, m, n, k);
}
BENCHMARK(BM_GemmNT)
    ->Args({512, 512, 64})
    ->Args({4096, 9216, 128})
    ->Args({4096, 4096, 512});

// Backward ∆X = Wᵀ·∆Y: args {m, n, k} = {d_in, B, d_out}.
void BM_GemmTN(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const Matrix w = rand_matrix(k, m, 5);
  const Matrix dy = rand_matrix(k, n, 6);
  Matrix dx(m, n);
  for (auto _ : state) {
    gemm_tn(w, dy, dx);
    benchmark::DoNotOptimize(dx.data());
  }
  set_gemm_counters(state, m, n, k);
}
BENCHMARK(BM_GemmTN)
    ->Args({512, 64, 512})
    ->Args({9216, 128, 4096})
    ->Args({4096, 512, 4096});

void BM_Conv2DForward(benchmark::State& state) {
  // One AlexNet-conv3-shaped layer (256 -> 384, 3x3 on 13x13) per sample.
  const auto batch = static_cast<std::size_t>(state.range(0));
  mbd::Rng rng(9);
  const mbd::tensor::ConvGeom g{64, 13, 13, 96, 3, 3, 1, 1};
  mbd::nn::Conv2D conv("c", g, rng);
  const Matrix x = rand_matrix(64 * 13 * 13, batch, 10);
  for (auto _ : state) {
    Matrix y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["images/s"] = benchmark::Counter(
      static_cast<double>(batch) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2DForward)->Arg(1)->Arg(4)->Arg(16);

void BM_Conv2DBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  mbd::Rng rng(11);
  const mbd::tensor::ConvGeom g{64, 13, 13, 96, 3, 3, 1, 1};
  mbd::nn::Conv2D conv("c", g, rng);
  const Matrix x = rand_matrix(64 * 13 * 13, batch, 12);
  Matrix y = conv.forward(x);
  const Matrix dy = rand_matrix(y.rows(), y.cols(), 13);
  for (auto _ : state) {
    Matrix dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2DBackward)->Arg(1)->Arg(4)->Arg(16);

// One train_conv_hybrid conv2 step on one rank: 16 -> 16 channels, 3x3, a
// 16x32 height slab, B=16 (forward + backward through the layer's reused
// buffers).
void BM_Conv2DSlabStep(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  mbd::Rng rng(15);
  const mbd::tensor::ConvGeom g{16, 16, 32, 16, 3, 3, 1, 1};
  mbd::nn::Conv2D conv("c", g, rng);
  const Matrix x = rand_matrix(16 * 16 * 32, batch, 16);
  const Matrix dy = rand_matrix(16 * 16 * 32, batch, 17);
  for (auto _ : state) {
    Matrix y = conv.forward(x);
    Matrix dx = conv.backward(dy);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2DSlabStep)->Arg(16);

// AlexNet-conv2-like lowering (64 channels, 5x5, 27x27, pad 2) into a reused
// columns block, and its adjoint.
const mbd::tensor::ConvGeom kLoweringGeom{64, 27, 27, 96, 5, 5, 1, 2};

void BM_Im2Col(benchmark::State& state) {
  mbd::Rng rng(14);
  const auto& g = kLoweringGeom;
  const auto t = Tensor4::random_normal(1, g.in_c, g.in_h, g.in_w, rng, 1.0f);
  Matrix cols(g.col_rows(), g.col_cols());
  for (auto _ : state) {
    im2col(t, 0, g, cols);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col);

void BM_Col2Im(benchmark::State& state) {
  const auto& g = kLoweringGeom;
  const Matrix cols = rand_matrix(g.col_rows(), g.col_cols(), 18);
  Tensor4 grad(1, g.in_c, g.in_h, g.in_w);
  for (auto _ : state) {
    col2im_add(cols, grad, 0, g);
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_Col2Im);

void BM_GemmReference(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const Matrix a = rand_matrix(d, d, 7);
  const Matrix b = rand_matrix(d, d, 8);
  for (auto _ : state) {
    Matrix c = matmul_reference(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, d, d, d);
}
BENCHMARK(BM_GemmReference)->Arg(128)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  return mbd::bench::run_microbench(argc, argv, "bench_gemm");
}
