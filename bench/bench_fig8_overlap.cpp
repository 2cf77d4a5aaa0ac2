// Fig. 8: the Fig. 7 configuration under PERFECT overlap of communication
// with backpropagation compute. Only the backprop all-reduces (≈ 2/3 of the
// communication) can hide behind the transpose-convolution work; the paper
// reports the integrated approach still wins 2.0× at P = 512.
//
// The second section makes the overlap *executable* for every trainer in the
// repo. Each of the seven trainers runs twice — blocking reductions, then the
// nonblocking schedule (ReduceMode::Overlapped) — with both the comm trace
// and the obs timeline recording. Three independent estimates of the hidden
// communication fraction are printed side by side:
//
//   measured  — from the wall-clock timeline: 1 − exposed_comm(overlapped)
//               / exposed_comm(blocking) on the critical rank
//               (obs::measured_hidden_fraction);
//   replay    — from replaying both traces under in-flight transfer
//               semantics on the modeled machine
//               (costmodel::replay_trace, inflight_transfer);
//   bound     — the paper's analytic ceiling min(f·comm, f·compute)/comm
//               with f = 2/3, evaluated on the replayed blocking critical
//               path.
#include <algorithm>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/costmodel/replay.hpp"
#include "mbd/obs/metrics.hpp"
#include "mbd/obs/overlap.hpp"
#include "mbd/parallel/batch_parallel.hpp"
#include "mbd/parallel/domain_parallel.hpp"
#include "mbd/parallel/hybrid.hpp"
#include "mbd/parallel/integrated.hpp"
#include "mbd/parallel/mixed_grid.hpp"
#include "mbd/parallel/model_parallel.hpp"
#include "mbd/parallel/pipeline.hpp"

namespace {

using namespace mbd;

// Measured (wall-clock) and replay (modeled) estimates come from different
// clocks; on a loaded CI box the wall-clock runs are noisy, so disagreement
// beyond the tolerance prints WARN rather than failing the harness.
constexpr double kAgreementTolerance = 0.35;

struct TrainerCase {
  std::string name;
  int p;
  std::function<void(comm::Comm&, parallel::ReduceMode, double)> run;
};

struct RunCapture {
  comm::ScheduleRecording trace;
  obs::TimelineSnapshot timeline;
};

/// One traced + profiled run of a trainer under `mode`.
RunCapture run_case(const TrainerCase& tc, parallel::ReduceMode mode,
                    double seconds_per_flop) {
  obs::reset_timeline();
  const bool was_profiling = obs::profiling_enabled();
  obs::enable_profiling(true);
  comm::World world(tc.p);
  world.enable_schedule_recording();
  world.run([&](comm::Comm& c) { tc.run(c, mode, seconds_per_flop); });
  RunCapture rc;
  rc.timeline = obs::snapshot_timeline();
  obs::enable_profiling(was_profiling);
  rc.trace = world.schedule_recording();
  return rc;
}

/// Critical-path pure-compute time: max over ranks of annotated seconds.
double max_rank_compute(const comm::ScheduleRecording& t) {
  double mx = 0.0;
  for (const auto& rank : t.ranks) {
    double s = 0.0;
    for (const auto& e : rank.events)
      if (e.kind == comm::ScheduleEventKind::Compute) s += e.seconds;
    mx = std::max(mx, s);
  }
  return mx;
}

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

std::vector<nn::LayerSpec> small_conv_net() {
  std::vector<nn::LayerSpec> specs;
  specs.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  specs.push_back(nn::fc_spec("fc2", 16, 4, false));
  return specs;
}

void executable_overlap_section() {
  std::cout << "\n-- executable overlap: all seven trainers, blocking vs "
               "nonblocking reduction schedule --\n"
               "(measured = timeline exposed-comm shrinkage; replay = traces "
               "replayed under\n in-flight transfer semantics; bound = "
               "min(f*comm, f*compute)/comm, f = 2/3,\n on the replayed "
               "blocking critical path. measured vs replay agreement within "
            << std::fixed << std::setprecision(2) << kAgreementTolerance
            << ")\n";
  const auto m = costmodel::MachineModel::cori_knl();
  const costmodel::ReplayOptions inflight{.inflight_transfer = true};
  // Modeled GEMM rate chosen so per-layer compute and per-layer reduction
  // wire time are the same order — the regime where overlap matters (at
  // cori_knl beta, a 256x512 layer's dW ring round is ~40 us of wire).
  const double spf = 3e-11;
  const std::size_t iters = 3;

  const auto mlp = nn::mlp_spec({256, 512, 256, 10});
  const auto mlp_data = nn::make_synthetic_dataset(256, 10, 128, 13);
  nn::TrainConfig mlp_cfg;
  mlp_cfg.batch = 32;
  mlp_cfg.iterations = iters;

  // The pipeline needs one FC layer per stage; deepen the MLP so P = 4
  // stage groups each own a real block. Its "hidden" columns measure how
  // much of the p2p boundary traffic the 1F1B interleave keeps off the
  // critical path relative to the same program run microbatch-serially.
  const auto pipe_mlp = nn::mlp_spec({256, 512, 256, 128, 10});

  const auto cnn = small_conv_net();
  const auto cnn_data = nn::make_synthetic_dataset(2 * 8 * 8, 4, 32, 9);
  nn::TrainConfig cnn_cfg;
  cnn_cfg.batch = 8;
  cnn_cfg.iterations = iters;

  using parallel::GridShape;
  using parallel::ReduceMode;
  const std::vector<TrainerCase> cases = {
      {"model p=4", 4,
       [&](comm::Comm& c, ReduceMode mode, double s) {
         (void)parallel::train_model_parallel(c, mlp, mlp_data, mlp_cfg, 42,
                                              mode, nullptr, s);
       }},
      {"batch p=4", 4,
       [&](comm::Comm& c, ReduceMode mode, double s) {
         (void)parallel::train_batch_parallel(c, mlp, mlp_data, mlp_cfg,
                                              nn::BuildOptions{}, mode,
                                              nullptr, s);
       }},
      {"15d pr=2 pc=2", 4,
       [&](comm::Comm& c, ReduceMode mode, double s) {
         (void)parallel::train_integrated_15d(c, GridShape{2, 2}, mlp,
                                              mlp_data, mlp_cfg, 42, mode, s);
       }},
      {"mixed pr=2 pc=2", 4,
       [&](comm::Comm& c, ReduceMode mode, double s) {
         (void)parallel::train_mixed_grid(c, GridShape{2, 2}, cnn, cnn_data,
                                          cnn_cfg, 42, mode, nullptr, s);
       }},
      {"domain p=4", 4,
       [&](comm::Comm& c, ReduceMode mode, double s) {
         (void)parallel::train_domain_parallel(c, cnn, cnn_data, cnn_cfg, 42,
                                               /*overlap_halo=*/false, mode,
                                               nullptr, s);
       }},
      {"hybrid pr=2 pc=2", 4,
       [&](comm::Comm& c, ReduceMode mode, double s) {
         (void)parallel::train_hybrid(c, GridShape{2, 2}, cnn, cnn_data,
                                      cnn_cfg, 42, /*overlap_halo=*/false,
                                      mode, nullptr, s);
       }},
      {"pipeline p=4 m=4", 4,
       [&](comm::Comm& c, ReduceMode mode, double s) {
         (void)parallel::train_pipeline(c, pipe_mlp, mlp_data, mlp_cfg,
                                        /*microbatches=*/4, 42, mode, nullptr,
                                        s);
       }},
  };

  std::cout << std::left << std::setw(20) << "trainer" << std::right
            << std::setw(14) << "blocking(ms)" << std::setw(13)
            << "replay(ms)" << std::setw(11) << "measured" << std::setw(11)
            << "replay" << std::setw(11) << "bound" << std::setw(8)
            << "agree" << '\n';
  for (const auto& tc : cases) {
    // Column 1: measured from the wall-clock timelines. The thread runtime's
    // exposed-comm time is mostly synchronization wait, so one sample is at
    // the mercy of the scheduler; best-of-3 per mode damps that.
    const int repeats = 3;
    auto bl = run_case(tc, ReduceMode::Blocking, spf);
    auto ov = run_case(tc, ReduceMode::Overlapped, spf);
    double comm_bl = obs::critical_comm_seconds(bl.timeline);
    double comm_ov = obs::critical_comm_seconds(ov.timeline);
    for (int r = 1; r < repeats; ++r) {
      comm_bl = std::min(
          comm_bl, obs::critical_comm_seconds(
                       run_case(tc, ReduceMode::Blocking, spf).timeline));
      comm_ov = std::min(
          comm_ov, obs::critical_comm_seconds(
                       run_case(tc, ReduceMode::Overlapped, spf).timeline));
    }
    const double measured =
        comm_bl > 0.0 ? clamp01(1.0 - comm_ov / comm_bl) : 0.0;

    // Column 2: replay both traces on the modeled machine. Exposed
    // communication in the blocking schedule is everything on the critical
    // path that is not annotated compute.
    const auto rb = costmodel::replay_trace(bl.trace, m, inflight);
    const auto ro = costmodel::replay_trace(ov.trace, m, inflight);
    const double compute = max_rank_compute(bl.trace);
    const double exposed = std::max(rb.makespan - compute, 0.0);
    const double replay_hidden =
        exposed > 0.0 ? clamp01((rb.makespan - ro.makespan) / exposed) : 0.0;

    // Column 3: the paper's f = 2/3 bound on the same replayed quantities.
    const double f = 2.0 / 3.0;
    const double bound =
        exposed > 0.0
            ? clamp01(std::min(f * exposed, f * compute) / exposed)
            : 0.0;

    const bool agree = std::abs(measured - replay_hidden) <=
                       kAgreementTolerance;
    std::cout << std::left << std::setw(20) << tc.name << std::right
              << std::fixed << std::setprecision(3) << std::setw(14)
              << rb.makespan * 1e3 << std::setw(13) << ro.makespan * 1e3
              << std::setprecision(2) << std::setw(11) << measured
              << std::setw(11) << replay_hidden << std::setw(11) << bound
              << std::setw(8) << (agree ? "ok" : "WARN") << '\n';

    bench::record_json("exec_" + tc.name + "_blocking", 0, rb.makespan * 1e9,
                       0);
    bench::record_json("exec_" + tc.name + "_overlapped", 0,
                       ro.makespan * 1e9, 0);
    // The fractions travel as metric records (no "ns": not timings).
    auto& metrics = obs::Metrics::instance();
    metrics.gauge_set("fig8." + tc.name + ".hidden_measured", measured);
    metrics.gauge_set("fig8." + tc.name + ".hidden_replay", replay_hidden);
    metrics.gauge_set("fig8." + tc.name + ".hidden_bound", bound);
  }
  std::cout << "note: measured < bound is structural, not noise. The f=2/3\n"
               "bound assumes every backprop byte can hide; the executable\n"
               "schedule posts only round 0 of each ring at initiation\n"
               "(later rounds depend on receives, which run at deterministic\n"
               "drain points), so one round per reduction overlaps compute\n"
               "and the rest stays exposed. The measured column uses wall\n"
               "clocks on whatever machine runs this bench; treat WARN as a\n"
               "load artifact unless it reproduces on a quiet machine.\n"
               "The pipeline row is the structural extreme: it moves no\n"
               "collective bytes at all (boundary activations travel as p2p\n"
               "messages under both modes), so its hidden fractions sit near\n"
               "zero and its two makespans agree — the interleave, not the\n"
               "reduction schedule, is what hides pipeline communication.\n";
}

}  // namespace

int main(int argc, char** argv) {
  mbd::bench::open_json_sink(argc, argv, "bench_fig8_overlap");
  using namespace mbd;
  bench::print_table1_banner(
      "Fig. 8 — perfect communication/backprop overlap (Fig. 7 config)");
  const auto net = bench::alexnet();
  const auto m = costmodel::MachineModel::cori_knl();
  const std::size_t batch = 2048;
  for (std::size_t p : {256u, 512u}) {
    std::cout << "-- subfigure: P = " << p << ", B = " << batch
              << " (per-iteration, overlapped) --\n";
    (void)bench::print_grid_sweep(net, batch, p, m,
                                  costmodel::GridMode::BatchParallelConv,
                                  /*overlap=*/true);
  }
  std::cout << "Paper reference point: even with perfect overlap the"
               " integrated approach keeps a ~2.0x speedup at P=512.\n";
  executable_overlap_section();
  return 0;
}
