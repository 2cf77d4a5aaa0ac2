// Trace-driven simulation (ours, beyond the paper): record the actual
// communication schedule of one training iteration on thread ranks, then
// replay it under the Table 1 machine model. Unlike the closed-form figures
// (which charge each collective its textbook complexity), the replayed
// makespan includes the real dependency chains and serialization of the
// executed schedule — an independent check that the closed forms describe
// what the algorithms actually do.
#include <functional>
#include <iostream>

#include "common.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/costmodel/replay.hpp"
#include "mbd/parallel/batch_parallel.hpp"
#include "mbd/parallel/integrated.hpp"
#include "mbd/support/units.hpp"

namespace {

using namespace mbd;

/// Record the schedule of one run of `fn` on `p` thread ranks and replay it.
/// Setup traffic (communicator splits) is part of the run and so of the
/// replay; the table notes it.
costmodel::ReplayResult replay_one(
    int p, const costmodel::MachineModel& m,
    const std::function<void(comm::Comm&)>& fn) {
  comm::World world(p);
  world.enable_schedule_recording();
  world.run(fn);
  return costmodel::replay_trace(world.schedule_recording(), m);
}

}  // namespace

int main(int argc, char** argv) {
  mbd::bench::open_json_sink(argc, argv, "bench_trace_replay");
  bench::print_table1_banner(
      "Trace replay — simulated iteration time from executed schedules");
  const auto m = costmodel::MachineModel::cori_knl();
  const auto specs = nn::mlp_spec({64, 128, 64, 16});
  const auto data = nn::make_synthetic_dataset(64, 16, 64, /*seed=*/1);
  nn::TrainConfig cfg;
  cfg.batch = 32;
  cfg.lr = 0.01f;
  cfg.iterations = 1;

  std::cout << "One SGD iteration of a 64-128-64-16 MLP, B=32, on thread"
               " ranks; communication replayed under Table 1 alpha/beta"
               " (compute excluded — schedules only).\n\n";
  TextTable t({"configuration", "replayed comm makespan", "closed-form comm",
               "recv wait (all ranks)", "events"});
  auto add_row = [&](const std::string& name, int p,
                     const std::function<void(comm::Comm&)>& fn,
                     double closed_form) {
    const auto r = replay_one(p, m, fn);
    t.row()
        .add(name)
        .add(format_seconds(r.makespan))
        .add(format_seconds(closed_form))
        .add(format_seconds(r.total_recv_wait))
        .add_int(static_cast<long long>(r.events));
  };

  const auto weighted = specs;  // all FC, already weighted
  for (int p : {4, 8}) {
    const auto closed = costmodel::batch_parallel_cost(
        weighted, cfg.batch, static_cast<std::size_t>(p), m,
        {costmodel::LatencyMode::AlgorithmExact});
    add_row("batch parallel P=" + std::to_string(p), p,
            [&](comm::Comm& c) {
              (void)parallel::train_batch_parallel(c, specs, data, cfg);
            },
            closed.comm());
  }
  {
    const auto closed = costmodel::integrated_cost(
        weighted, cfg.batch, 2, 4, m, costmodel::GridMode::Uniform,
        {costmodel::LatencyMode::AlgorithmExact});
    add_row("1.5D 2x4", 8,
            [&](comm::Comm& c) {
              (void)parallel::train_integrated_15d(c, {2, 4}, specs, data,
                                                   cfg);
            },
            closed.comm());
  }
  t.print(std::cout);
  std::cout << "  (replayed makespans sit near the exact-latency closed"
               " forms — the residual is the loss gather/broadcast and the"
               " communicator-split setup the formulas do not model, plus"
               " pipeline effects only the schedule can show)\n\n";

  // Compute/communication interleaving: annotate imbalanced compute and
  // watch the replay absorb it into recv wait on the fast ranks.
  std::cout << "-- annotated compute: imbalance becomes recv wait --\n";
  TextTable t2({"imbalance", "makespan", "recv wait", "compute total"});
  for (double skew : {0.0, 0.5, 1.0}) {
    const auto r = replay_one(4, m, [&](comm::Comm& c) {
      // Rank r computes 1 + skew·r/P seconds, then joins an all-reduce.
      c.annotate_compute(1.0 + skew * c.rank() / 4.0);
      std::vector<float> v(1 << 16, 1.0f);
      c.allreduce(std::span<float>(v));
    });
    t2.row()
        .add(format_double(skew, 1) + "x")
        .add(format_seconds(r.makespan))
        .add(format_seconds(r.total_recv_wait))
        .add(format_seconds(r.total_compute));
  }
  t2.print(std::cout);
  std::cout << "  (a skewed compute distribution stretches the makespan by"
               " the slowest rank and shows up as waiting on the others —"
               " the synchronous-SGD straggler effect, visible only in"
               " schedule-aware simulation)\n";
  return 0;
}
