#include <algorithm>
#include <utility>

#include "checks.hpp"
#include "layers.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/support/check.hpp"
#include "workloads.hpp"

namespace perfbench {

using mbd::comm::StatsSnapshot;
namespace nn = mbd::nn;
namespace parallel = mbd::parallel;

nn::TrainConfig TrainWorkload::config(std::size_t iterations) const {
  nn::TrainConfig cfg;
  cfg.batch = batch;
  // Slow enough that the loss after a fixed number of steps is still far
  // from zero and varies little from one data seed to the next.
  cfg.lr = 0.001f;
  cfg.iterations = iterations;
  return cfg;
}

TrainWorkload train_fc_15d() {
  TrainWorkload w;
  w.name = "train_fc_15d";
  w.trainer = "integrated";
  w.grid = {2, 2};
  w.specs = nn::mlp_spec({512, 1024, 1024, 1024, 100});
  w.batch = 128;
  w.mode = parallel::ReduceMode::Overlapped;
  w.input_dim = 512;
  w.classes = 100;
  w.samples = 1024;
  w.steps_per_episode = 30;
  return w;
}

TrainWorkload train_conv_hybrid() {
  TrainWorkload w;
  w.name = "train_conv_hybrid";
  w.trainer = "hybrid";
  w.grid = {2, 2};
  w.specs = {nn::conv_spec("conv1", 3, 32, 32, 16, 3, 1, 1),
             nn::conv_spec("conv2", 16, 32, 32, 16, 3, 1, 1),
             nn::fc_spec("fc1", 16 * 32 * 32, 256),
             nn::fc_spec("fc2", 256, 10, false)};
  w.batch = 32;
  w.mode = parallel::ReduceMode::Blocking;
  w.input_dim = 3 * 32 * 32;
  w.classes = 10;
  w.samples = 256;
  w.steps_per_episode = 20;
  return w;
}

TrainEpisode run_train_episode(const TrainWorkload& w,
                               const nn::Dataset& data,
                               std::size_t iterations, Timing timing) {
  const parallel::TrainerEntry* entry = parallel::find_trainer(w.trainer);
  MBD_CHECK_MSG(entry != nullptr, "unknown trainer");
  const int ranks = w.grid.pr * w.grid.pc;
  const nn::TrainConfig cfg = w.config(iterations);
  parallel::TrainerOptions opts;
  opts.grid = w.grid;
  opts.seed = kWeightSeed;
  opts.mode = w.mode;

  TrainEpisode ep;
  if (timing != Timing::Off) ep.clocks.resize(static_cast<std::size_t>(ranks));
  const std::uint64_t t0 = steady_ns();
  mbd::comm::World world(ranks);
  world.run([&](mbd::comm::Comm& c) {
    pin_thread(c.rank());
    parallel::EngineLayout layout = entry->layout(c, opts, w.specs, w.batch);
    if (timing != Timing::Off)
      wrap_stages(layout, ep.clocks[static_cast<std::size_t>(c.rank())],
                  timing);
    parallel::DistResult r =
        parallel::train_layout(c, std::move(layout), data, cfg);
    if (c.rank() == 0) {
      ep.losses = std::move(r.losses);
      ep.params = std::move(r.params);
    }
  });
  ep.traffic = world.stats();
  if (timing != Timing::Off) {
    const std::vector<std::uint64_t>& begin = ep.clocks[0].step_begin_ns;
    MBD_CHECK_EQ(begin.size(), iterations);
    ep.setup_s = static_cast<double>(begin[0] - t0) * 1e-9;
    // Step 0 warms caches and allocations; the last step has no next
    // begin to end it.
    for (std::size_t i = 1; i + 1 < begin.size(); ++i)
      ep.step_s.push_back(static_cast<double>(begin[i + 1] - begin[i]) * 1e-9);
  }
  return ep;
}

namespace {

/// Mean of the last five losses: damps batch-to-batch noise.
double final_loss(const std::vector<double>& losses) {
  const std::size_t n = std::min<std::size_t>(5, losses.size());
  double sum = 0;
  for (std::size_t i = losses.size() - n; i < losses.size(); ++i) sum += losses[i];
  return sum / static_cast<double>(n);
}

struct Phase {
  std::vector<double> setup_s, step_s;
  double loss_final = 0;
};

}  // namespace

Result run_training(const TrainWorkload& w, const RunOptions& o) {
  Result res;
  const parallel::TrainerEntry* entry = parallel::find_trainer(w.trainer);
  MBD_CHECK_MSG(entry != nullptr, "unknown trainer");
  const int ranks = w.grid.pr * w.grid.pc;
  const nn::Dataset data =
      nn::make_synthetic_dataset(w.input_dim, w.classes, w.samples, o.seed);

  // Sequential reference for the loss check. Training it on for as many
  // steps again, now warm, is the single-worker baseline.
  nn::Network net = nn::build_network(w.specs, {.seed = kWeightSeed});
  const std::vector<double> reference =
      nn::train_sgd(net, data, w.config(kReferenceSteps));
  const Clock::time_point seq_start = Clock::now();
  (void)nn::train_sgd(net, data, w.config(kReferenceSteps));
  const double seq_s = seconds_between(seq_start, Clock::now());

  // One iteration's traffic is the difference of a 2-step and a 1-step
  // episode; what remains of the 1-step episode is the fixed set-up
  // (communicator splits) and tear-down (parameter assembly) traffic.
  const StatsSnapshot one = run_train_episode(w, data, 1, Timing::Off).traffic;
  const StatsSnapshot two = run_train_episode(w, data, 2, Timing::Off).traffic;
  const StatsSnapshot step = two.since(one);
  const StatsSnapshot overhead = one.since(step);
  mbd::costmodel::RankVolume closed;
  for (int r = 0; r < ranks; ++r)
    closed += mbd::costmodel::trainer_rank_volume(
        entry->kind, w.specs, w.batch, w.grid.pr, w.grid.pc, r);
  const bool closed_ok = matches_closed_form(step, closed);
  const StatsSnapshot expected =
      episode_traffic(overhead, step, w.steps_per_episode);

  TraceTotals totals;
  auto run_phase = [&](double seconds, bool traced, Phase& ph) {
    const Clock::time_point start = Clock::now();
    do {
      if (traced) {
        mbd::obs::reset_timeline();
        mbd::obs::enable_profiling(true);
      }
      TrainEpisode ep =
          run_train_episode(w, data, w.steps_per_episode,
                            traced ? Timing::Calls : Timing::Steps);
      if (traced) {
        mbd::obs::enable_profiling(false);
        totals.add_timeline(mbd::obs::snapshot_timeline());
        totals.add_clocks(ep.clocks);
      }
      const bool traffic_ok = closed_ok && same_traffic(ep.traffic, expected);
      res.attempted += ep.losses.size();
      res.failed += failed_steps(ep.losses, reference, traffic_ok);
      ph.setup_s.push_back(ep.setup_s);
      ph.step_s.insert(ph.step_s.end(), ep.step_s.begin(), ep.step_s.end());
      ph.loss_final = final_loss(ep.losses);
    } while (seconds_between(start, Clock::now()) < seconds);
  };

  Phase plain;
  run_phase(o.trace ? o.seconds / 2 : o.seconds, false, plain);
  double total_step_s = 0;
  for (double s : plain.step_s) total_step_s += s;
  const double samples_per_s =
      static_cast<double>(w.batch * plain.step_s.size()) / total_step_s;

  if (!o.trace) {
    res.correct = res.failed == 0;
    res.add("samples_per_s", "1/s", samples_per_s);
    res.add("latency_ms_p50", "ms", quantile(plain.step_s, 0.5) * 1e3);
    res.add("loss_final", "nats", plain.loss_final);
    res.add("setup_s", "s", median(plain.setup_s));
    return res;
  }

  Phase traced;
  run_phase(o.seconds / 2, true, traced);
  res.correct = res.failed == 0;
  LayerReport l;
  totals.fill(l);
  fill_traffic(l, step, 1.0);
  l.closed_form_bytes = static_cast<double>(closed.total());
  l.closed_form_ratio =
      (l.bytes_allreduce + l.bytes_allgather + l.bytes_p2p) /
      l.closed_form_bytes;
  l.step_ms_p90 = quantile(plain.step_s, 0.9) * 1e3;
  l.trace_overhead = median(traced.step_s) / median(plain.step_s);
  l.seq_samples_per_s =
      static_cast<double>(w.batch * kReferenceSteps) / seq_s;
  l.efficiency = samples_per_s / (ranks * l.seq_samples_per_s);
  add_per_layer(res, l);
  return res;
}

}  // namespace perfbench
