// Per-layer metrics of the traced run. Every workload reports the same
// keys, in the same order; a layer a workload does not exercise reads 0.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common.hpp"
#include "mbd/comm/stats.hpp"
#include "mbd/obs/profiler.hpp"
#include "timed_stage.hpp"

namespace perfbench {

/// Stage slots reported as parallel.stage.<i>.*; the hybrid conv layout
/// has the most stages (scatter, two convs, gather, two FC layers).
inline constexpr std::size_t kReportedStages = 6;

struct LayerReport {
  // parallel: the TimedStage decorator. Stage times are per call; update
  // and other are per step and rank; skew is the median over steps. The
  // step-time p90 comes from the untraced half of the run.
  std::array<double, kReportedStages> stage_fwd_ms{}, stage_bwd_ms{};
  double update_ms = 0, other_ms = 0, rank_skew_ms = 0, step_ms_p90 = 0;
  // tensor: profiler Gemm/Pack/Im2col spans, per step and rank.
  double gemm_ms = 0, gemm_calls = 0, gemm_gflops = 0, pack_b_ms = 0,
         im2col_ms = 0;
  // comm: World::stats() per step (all ranks) and CollPost/CollWait/NbDrain
  // spans.
  double bytes_allreduce = 0, bytes_allgather = 0, bytes_p2p = 0,
         bytes_other = 0, messages = 0, exposed_ms = 0, drain_ms = 0,
         closed_form_bytes = 0, closed_form_ratio = 0;
  // serve: registry metrics and Serve spans; the lo p90 comes from the
  // untraced lo rung.
  double latency_ms_p90_lo = 0, forward_ms_p50 = 0, queue_wait_ms_p99 = 0, batch_size_mean = 0,
         chosen_batch = 0, batch_fill = 0, calibrate_s = 0,
         rejected_queue_full = 0, rejected_deadline = 0, latency_ms_p50_hi = 0,
         latency_ms_p99_hi = 0, max_rate_rps = 0;
  // other
  double lag_ms_max = 0, trace_overhead = 0, seq_samples_per_s = 0,
         efficiency = 0;
};

/// Append every per-layer metric of `l` to `r`.
void add_per_layer(Result& r, const LayerReport& l);

/// Accumulates decorator clocks and profiler timelines over traced
/// episodes, then normalizes them per step into a LayerReport.
class TraceTotals {
 public:
  void add_clocks(const std::vector<StageClock>& clocks);
  void add_timeline(const mbd::obs::TimelineSnapshot& snap);
  /// Steps (engine iterations or forward passes) seen on one rank.
  double steps() const;
  /// Fill the parallel, tensor and comm-time fields of `l`.
  void fill(LayerReport& l) const;

 private:
  std::array<double, kReportedStages> fwd_ns_{}, bwd_ns_{}, fwd_calls_{},
      bwd_calls_{};
  double update_ns_ = 0, rank_steps_ = 0;
  int ranks_ = 0;
  std::vector<double> other_ms_, skew_ms_;
  double gemm_s_ = 0, gemm_flops_ = 0, gemm_calls_ = 0, pack_s_ = 0,
         im2col_s_ = 0, drain_s_ = 0, exposed_s_ = 0;
};

/// The AllReduce / AllGather / point-to-point / other split of one step's
/// traffic, divided by `per`.
void fill_traffic(LayerReport& l, const mbd::comm::StatsSnapshot& traffic,
                  double per);

}  // namespace perfbench
