#include "common.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "mbd/tensor/gemm_config.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) os << ", ";
    os << '"' << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Rejected requests enter as +inf; never interpolate towards them.
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void pin_thread(int cpu) {
  const int n = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  // Best effort: an affinity the host refuses only costs steadiness.
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

std::string host_stamp_json() {
  const mbd::tensor::GemmConfig& g = mbd::tensor::gemm_config();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"gemm_microtile\": \"" << g.mr << "x" << g.nr << "\""
     << ", \"gemm_kernel\": \"" << g.kernel << "\""
     << ", \"omp_threads\": " << omp_threads() << "}";
  return os.str();
}

}  // namespace perfbench
