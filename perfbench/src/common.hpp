// Shared pieces of the benchmark runner: run options, the result record the
// runner prints as its last line, order statistics, and the host stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Steady-clock nanoseconds, the clock of the obs profiler's spans.
inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: whether every output check passed, how many
/// operations (training steps or requests) were attempted and failed, and
/// the metrics in the order they were added.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

/// The one-line JSON object with exactly the keys correct, attempted,
/// failed and metrics; values are printed with all their digits.
std::string result_json(const Result& r);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// nproc, build type, GEMM microtile and OpenMP thread count as one JSON
/// object, so a figure is never compared with one from another build.
std::string host_stamp_json();

/// Pin the calling thread to CPU `cpu` modulo the CPU count. Every rank,
/// generator and collector thread gets its own CPU: unpinned, migrations
/// on a shared host spread latencies across runs several times wider.
void pin_thread(int cpu);

/// OpenMP threads a parallel region opened by the calling thread would use
/// (1 without OpenMP).
int omp_threads();

}  // namespace perfbench
