#include "layers.hpp"

#include <algorithm>
#include <string>

#include "mbd/obs/overlap.hpp"

namespace perfbench {

using mbd::comm::Coll;
using mbd::obs::SpanKind;

void add_per_layer(Result& r, const LayerReport& l) {
  for (std::size_t i = 0; i < kReportedStages; ++i) {
    const std::string p = "parallel.stage." + std::to_string(i);
    r.add(p + ".fwd_ms", "ms", l.stage_fwd_ms[i]);
    r.add(p + ".bwd_ms", "ms", l.stage_bwd_ms[i]);
  }
  r.add("parallel.update_ms", "ms", l.update_ms);
  r.add("parallel.other_ms", "ms", l.other_ms);
  r.add("parallel.rank_skew_ms", "ms", l.rank_skew_ms);
  r.add("parallel.step_ms_p90", "ms", l.step_ms_p90);
  r.add("tensor.gemm_ms", "ms", l.gemm_ms);
  r.add("tensor.gemm_calls", "count", l.gemm_calls);
  r.add("tensor.gemm_gflops", "GFLOP/s", l.gemm_gflops);
  r.add("tensor.pack_b_ms", "ms", l.pack_b_ms);
  r.add("tensor.im2col_ms", "ms", l.im2col_ms);
  r.add("comm.bytes_per_step.allreduce", "B", l.bytes_allreduce);
  r.add("comm.bytes_per_step.allgather", "B", l.bytes_allgather);
  r.add("comm.bytes_per_step.p2p", "B", l.bytes_p2p);
  r.add("comm.bytes_per_step.other", "B", l.bytes_other);
  r.add("comm.messages_per_step", "count", l.messages);
  r.add("comm.exposed_ms", "ms", l.exposed_ms);
  r.add("comm.drain_ms", "ms", l.drain_ms);
  r.add("comm.closed_form_bytes", "B", l.closed_form_bytes);
  r.add("comm.closed_form_ratio", "ratio", l.closed_form_ratio);
  r.add("serve.latency_ms_p90_lo", "ms", l.latency_ms_p90_lo);
  r.add("serve.forward_ms_p50", "ms", l.forward_ms_p50);
  r.add("serve.queue_wait_ms_p99", "ms", l.queue_wait_ms_p99);
  r.add("serve.batch_size_mean", "count", l.batch_size_mean);
  r.add("serve.chosen_batch", "count", l.chosen_batch);
  r.add("serve.batch_fill", "ratio", l.batch_fill);
  r.add("serve.calibrate_s", "s", l.calibrate_s);
  r.add("serve.rejected.queue_full", "count", l.rejected_queue_full);
  r.add("serve.rejected.deadline", "count", l.rejected_deadline);
  r.add("serve.latency_ms_p50_hi", "ms", l.latency_ms_p50_hi);
  r.add("serve.latency_ms_p99_hi", "ms", l.latency_ms_p99_hi);
  r.add("serve.max_rate_rps", "1/s", l.max_rate_rps);
  r.add("loadgen.lag_ms_max", "ms", l.lag_ms_max);
  r.add("obs.trace_overhead", "ratio", l.trace_overhead);
  r.add("baseline.seq_samples_per_s", "1/s", l.seq_samples_per_s);
  r.add("parallel.efficiency", "ratio", l.efficiency);
}

void TraceTotals::add_clocks(const std::vector<StageClock>& clocks) {
  ranks_ = static_cast<int>(clocks.size());
  for (const StageClock& c : clocks) {
    for (std::size_t i = 0; i < c.fwd_ns.size() && i < kReportedStages; ++i) {
      fwd_ns_[i] += static_cast<double>(c.fwd_ns[i]);
      bwd_ns_[i] += static_cast<double>(c.bwd_ns[i]);
      fwd_calls_[i] += static_cast<double>(c.fwd_calls[i]);
      bwd_calls_[i] += static_cast<double>(c.bwd_calls[i]);
    }
    update_ns_ += static_cast<double>(c.update_ns);
    rank_steps_ += static_cast<double>(c.step_begin_ns.size());
    // Time between step starts not spent inside a stage call: the loss,
    // the gradient drain, batch slicing and executor bookkeeping.
    for (std::size_t s = 0; s + 1 < c.step_begin_ns.size(); ++s) {
      const double interval =
          static_cast<double>(c.step_begin_ns[s + 1] - c.step_begin_ns[s]);
      other_ms_.push_back((interval - static_cast<double>(c.step_busy_ns[s])) *
                          1e-6);
    }
  }
  std::size_t steps = clocks.empty() ? 0 : clocks[0].step_begin_ns.size();
  for (const StageClock& c : clocks)
    steps = std::min(steps, c.step_begin_ns.size());
  for (std::size_t s = 0; s < steps; ++s) {
    std::uint64_t lo = clocks[0].step_begin_ns[s], hi = lo;
    for (const StageClock& c : clocks) {
      lo = std::min(lo, c.step_begin_ns[s]);
      hi = std::max(hi, c.step_begin_ns[s]);
    }
    skew_ms_.push_back(static_cast<double>(hi - lo) * 1e-6);
  }
}

void TraceTotals::add_timeline(const mbd::obs::TimelineSnapshot& snap) {
  for (const mbd::obs::ThreadTimeline& t : snap.threads) {
    if (t.rank < 0) continue;
    for (const mbd::obs::Span& s : t.spans) {
      const double dt = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
      switch (s.kind) {
        case SpanKind::Gemm:
          gemm_s_ += dt;
          gemm_calls_ += 1;
          // args: m·n outputs, depth k.
          gemm_flops_ += 2.0 * static_cast<double>(s.arg0) *
                         static_cast<double>(s.arg1);
          break;
        case SpanKind::Pack:
          pack_s_ += dt;
          break;
        case SpanKind::Im2col:
          im2col_s_ += dt;
          break;
        case SpanKind::NbDrain:
          drain_s_ += dt;
          break;
        default:
          break;
      }
    }
  }
  exposed_s_ += mbd::obs::critical_comm_seconds(snap);
}

double TraceTotals::steps() const {
  return ranks_ > 0 ? rank_steps_ / ranks_ : 0.0;
}

void TraceTotals::fill(LayerReport& l) const {
  for (std::size_t i = 0; i < kReportedStages; ++i) {
    if (fwd_calls_[i] > 0) l.stage_fwd_ms[i] = fwd_ns_[i] * 1e-6 / fwd_calls_[i];
    if (bwd_calls_[i] > 0) l.stage_bwd_ms[i] = bwd_ns_[i] * 1e-6 / bwd_calls_[i];
  }
  if (rank_steps_ <= 0) return;
  l.update_ms = update_ns_ * 1e-6 / rank_steps_;
  l.other_ms = median(other_ms_);
  l.rank_skew_ms = median(skew_ms_);
  l.gemm_ms = gemm_s_ * 1e3 / rank_steps_;
  l.gemm_calls = gemm_calls_ / steps();
  l.gemm_gflops = gemm_s_ > 0 ? gemm_flops_ / gemm_s_ * 1e-9 : 0.0;
  l.pack_b_ms = pack_s_ * 1e3 / rank_steps_;
  l.im2col_ms = im2col_s_ * 1e3 / rank_steps_;
  l.drain_ms = drain_s_ * 1e3 / rank_steps_;
  l.exposed_ms = exposed_s_ * 1e3 / steps();
}

void fill_traffic(LayerReport& l, const mbd::comm::StatsSnapshot& traffic,
                  double per) {
  if (per <= 0) return;
  const auto ar = static_cast<double>(traffic[Coll::AllReduce].bytes);
  const auto ag = static_cast<double>(traffic[Coll::AllGather].bytes);
  const auto p2p = static_cast<double>(traffic[Coll::PointToPoint].bytes);
  const auto total = static_cast<double>(traffic.total_bytes());
  l.bytes_allreduce = ar / per;
  l.bytes_allgather = ag / per;
  l.bytes_p2p = p2p / per;
  l.bytes_other = (total - ar - ag - p2p) / per;
  l.messages = static_cast<double>(traffic.total_messages()) / per;
}

}  // namespace perfbench
