#include "common.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "mbd/obs/metrics.hpp"
#include "mbd/support/units.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/gemm_config.hpp"

namespace mbd::bench {

using costmodel::GridMode;
using costmodel::GridOption;
using costmodel::MachineModel;

void print_table1_banner(const std::string& experiment) {
  std::cout << "=== " << experiment << " ===\n"
            << "Fixed parameters (paper Table 1): AlexNet (61M params, 5 conv"
               " + 3 FC), ImageNet N=1,281,167,\n"
            << "Cori-KNL network: alpha=2us, 1/beta=6GB/s; compute curve"
               " digitized from Fig. 4.\n\n";
}

std::vector<nn::LayerSpec> alexnet() {
  return nn::weighted_layers(nn::alexnet_spec());
}

namespace {

// Global record sink: opened once per process by open_json_sink, flushed by
// std::atexit so every main stays a one-liner.
struct JsonSink {
  std::string path;
  std::string bench;
  std::vector<std::pair<std::string, std::array<double, 3>>> records;
  bool open = false;
};

JsonSink& sink() {
  static JsonSink s;
  return s;
}

void flush_sink() {
  JsonSink& s = sink();
  if (!s.open) return;
  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write bench json to %s\n",
                 s.path.c_str());
    return;
  }
  // Metric records ride along after the timing records: counters/gauges from
  // the obs registry (GEMM shape inventory, ...) as {"case": "metric:<name>",
  // "value": ...} — deliberately without "ns", so regression tooling knows
  // they are not timings (scripts/check_bench_regression.py skips them).
  const auto metrics = obs::Metrics::instance().snapshot();
  std::fputs("[\n", f);
  const std::size_t total = s.records.size() + metrics.size();
  std::size_t emitted = 0;
  for (const auto& [name, v] : s.records) {
    ++emitted;
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"case\": \"%s\", \"bytes\": %.17g,"
                 " \"ns\": %.17g, \"gflops\": %.17g}%s\n",
                 s.bench.c_str(), name.c_str(), v[0], v[1], v[2],
                 emitted == total ? "" : ",");
  }
  for (const auto& m : metrics) {
    ++emitted;
    std::fprintf(f, "  {\"bench\": \"%s\", \"case\": \"metric:%s\","
                    " \"value\": %.17g}%s\n",
                 s.bench.c_str(), m.name.c_str(), m.value,
                 emitted == total ? "" : ",");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

}  // namespace

void open_json_sink(int& argc, char** argv, const std::string& bench_name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: --json needs a path argument\n");
      std::exit(2);
    }
    JsonSink& s = sink();
    s.path = argv[i + 1];
    s.bench = bench_name;
    s.open = true;
    // Shape inventory for the record stream (one counter per distinct GEMM
    // shape the process issues), replacing the old stderr-only logger.
    tensor::set_gemm_shape_metrics(true);
    // Select the GEMM kernel now, so its tensor.gemm_kernel.<name> counter
    // reaches the file even from a bench that runs no GEMM.
    (void)tensor::gemm_config();
    // Strip the two arguments so later flag parsers never see them.
    for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    std::atexit(flush_sink);
    return;
  }
}

void record_json(const std::string& case_name, double bytes, double ns,
                 double gflops) {
  JsonSink& s = sink();
  if (!s.open) return;
  s.records.emplace_back(case_name, std::array<double, 3>{bytes, ns, gflops});
}

GridOption print_grid_sweep(const std::vector<nn::LayerSpec>& net,
                            std::size_t batch, std::size_t p,
                            const MachineModel& m, GridMode mode,
                            bool overlap) {
  const auto options = costmodel::enumerate_integrated_grids(
      net, batch, p, m, mode, {}, overlap);
  // Recover the pure batch baseline for the speedup annotation.
  const GridOption* pure = nullptr;
  for (const auto& o : options)
    if (o.pr == 1) pure = &o;

  TextTable t({"grid Pr x Pc", "T_allgather", "T_ardx", "T_ardw(batch)",
               "T_comm", "T_comp", "T_total", overlap ? "T_overlap" : ""});
  // Sort rows by pr for a stable, figure-like ordering.
  auto rows = options;
  std::sort(rows.begin(), rows.end(),
            [](const GridOption& a, const GridOption& b) { return a.pr < b.pr; });
  for (const auto& o : rows) {
    t.row()
        .add(std::to_string(o.pr) + " x " + std::to_string(o.pc))
        .add(format_seconds(o.cost.ag_forward().total()))
        .add(format_seconds(o.cost.ar_dx().total()))
        .add(format_seconds(o.cost.ar_dw().total()))
        .add(format_seconds(o.cost.comm()))
        .add(format_seconds(o.cost.compute))
        .add(format_seconds(o.cost.total()))
        .add(overlap ? format_seconds(o.cost.total_overlapped()) : "");
  }
  t.print(std::cout);

  const GridOption& best = options.front();
  if (pure != nullptr && pure->pr != best.pr) {
    const double total_speedup =
        (overlap ? pure->cost.total_overlapped() : pure->cost.total()) /
        (overlap ? best.cost.total_overlapped() : best.cost.total());
    const double comm_speedup = pure->cost.comm() / best.cost.comm();
    std::cout << "  best grid " << best.pr << "x" << best.pc << ": "
              << format_double(total_speedup, 1) << "x total ("
              << format_double(comm_speedup, 1)
              << "x communication) vs pure batch parallel\n";
  } else {
    std::cout << "  best grid " << best.pr << "x" << best.pc
              << " (pure batch parallel is optimal here)\n";
  }
  std::cout << '\n';
  // Model-predicted best-grid time as a machine-readable record, so table
  // harnesses also accrue a trajectory under --json (docs/benchmarks.md).
  record_json("P" + std::to_string(p) + "/B" + std::to_string(batch) +
                  "/grid" + std::to_string(best.pr) + "x" +
                  std::to_string(best.pc),
              0.0,
              (overlap ? best.cost.total_overlapped() : best.cost.total()) *
                  1e9,
              0.0);
  return best;
}

}  // namespace mbd::bench
