// Benchmark runner: one workload, one seed, one run.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a host stamp line, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics. Expects OMP_NUM_THREADS=1
// (run.py sets it): every rank is a thread, and each rank's GEMM would
// otherwise open its own OpenMP team on the same cores.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload "
               "train_fc_15d|train_conv_hybrid|serve_open_loop --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string trace = "0";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        trace = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (!have_workload) return usage("--workload is required");
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  if (!(o.seconds > 0 && o.seconds <= 600)) return usage("--seconds out of range");
  o.trace = trace == "1";
  if (perfbench::omp_threads() != 1)
    return usage("run with OMP_NUM_THREADS=1 (one OpenMP thread per rank)");

  try {
    perfbench::Result r;
    if (o.workload == "train_fc_15d") {
      r = perfbench::run_training(perfbench::train_fc_15d(), o);
    } else if (o.workload == "train_conv_hybrid") {
      r = perfbench::run_training(perfbench::train_conv_hybrid(), o);
    } else if (o.workload == "serve_open_loop") {
      r = perfbench::run_serving(o);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
    // JSON has no infinity or NaN: a metric the run could not measure (a
    // latency quantile over shed requests, say) fails the run instead.
    for (const perfbench::Metric& m : r.metrics)
      if (!std::isfinite(m.value))
        throw std::runtime_error("metric " + m.name + " is not finite");
    std::cout << "host " << perfbench::host_stamp_json() << "\n"
              << perfbench::result_json(r) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
