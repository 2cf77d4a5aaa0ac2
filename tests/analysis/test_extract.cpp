// End-to-end analyzer tests: extract real trainer schedules (compute
// elided) and prove them clean, byte-exact against the closed forms — and
// show that a tampered schedule is caught.
#include "mbd/analysis/extract.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mbd/analysis/schedule_checks.hpp"
#include "mbd/comm/schedule_recorder.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/parallel/integrated.hpp"

namespace mbd::analysis {
namespace {

using costmodel::TrainerKind;
using parallel::GridShape;
using parallel::ReduceMode;

std::vector<nn::LayerSpec> conv_net() {
  std::vector<nn::LayerSpec> specs;
  specs.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  specs.push_back(nn::fc_spec("fc2", 16, 8, false));
  return specs;
}

AnalyzerConfig make_config(TrainerKind kind, GridShape grid, ReduceMode mode) {
  AnalyzerConfig cfg;
  cfg.kind = kind;
  cfg.grid = grid;
  cfg.mode = mode;
  switch (kind) {
    case TrainerKind::DomainParallel:
    case TrainerKind::Hybrid:
      cfg.specs = conv_net();
      cfg.batch = 8;
      break;
    case TrainerKind::MixedGrid:
      cfg.specs = nn::small_cnn_spec(2, 8, 8);
      cfg.batch = 16;
      break;
    default:
      cfg.specs = nn::mlp_spec({10, 24, 12, 12});
      cfg.batch = 16;
      break;
  }
  return cfg;
}

std::string describe_all(const std::vector<Violation>& vs) {
  std::string out;
  for (const auto& v : vs) out += v.describe() + '\n';
  return out;
}

TEST(Extract, AllTrainersProvenCleanOnBothModes) {
  const std::vector<TrainerKind> kinds = {
      TrainerKind::BatchParallel, TrainerKind::ModelParallel,
      TrainerKind::Integrated15D, TrainerKind::DomainParallel,
      TrainerKind::Hybrid,        TrainerKind::MixedGrid};
  for (const TrainerKind kind : kinds) {
    for (const GridShape grid : {GridShape{2, 2}, GridShape{3, 2}}) {
      for (const ReduceMode mode :
           {ReduceMode::Blocking, ReduceMode::Overlapped}) {
        const auto cfg = make_config(kind, grid, mode);
        const CaseResult result = analyze_case(cfg);
        EXPECT_TRUE(result.clean())
            << result.trainer << " " << grid.pr << "x" << grid.pc << " "
            << result.mode << ":\n"
            << describe_all(result.violations);
        EXPECT_GT(result.events, 0u);
        EXPECT_GT(result.allreduce_bytes + result.allgather_bytes +
                      result.p2p_bytes,
                  0u);
      }
    }
  }
}

TEST(Extract, UnevenPartitionsAreByteExactToo) {
  // 23 and 11 divide by neither grid extent and batch 18 splits unevenly:
  // the ring all-gatherv and uneven ring all-reduce forms carry the check.
  for (const TrainerKind kind :
       {TrainerKind::ModelParallel, TrainerKind::Integrated15D}) {
    AnalyzerConfig cfg = make_config(kind, {2, 4}, ReduceMode::Blocking);
    cfg.specs = nn::mlp_spec({10, 23, 11, 12});
    cfg.batch = 18;
    const CaseResult result = analyze_case(cfg);
    EXPECT_TRUE(result.clean())
        << result.trainer << ":\n" << describe_all(result.violations);
  }
}

TEST(Extract, RecordsOneStepEndPerIterationPerRank) {
  AnalyzerConfig cfg =
      make_config(TrainerKind::BatchParallel, {2, 2}, ReduceMode::Blocking);
  cfg.iterations = 4;
  const comm::ScheduleRecording rec = extract_schedule(cfg);
  ASSERT_EQ(rec.size(), 4);
  for (const auto& rank : rec.ranks) {
    std::size_t steps = 0;
    for (const auto& ev : rank.events)
      if (ev.kind == comm::ScheduleEventKind::StepEnd) ++steps;
    EXPECT_EQ(steps, cfg.iterations);
  }
}

TEST(Extract, TamperedScheduleFailsTheTrafficCheck) {
  const AnalyzerConfig cfg =
      make_config(TrainerKind::BatchParallel, {2, 2}, ReduceMode::Blocking);
  comm::ScheduleRecording rec = extract_schedule(cfg);
  const TrafficExpectation expect = expectation_for(cfg);
  ASSERT_TRUE(check_traffic(rec, expect).empty());

  // Inflate one steady-state all-reduce send by 4 bytes on rank 0.
  std::size_t step = 0;
  bool tampered = false;
  for (auto& ev : rec.ranks[0].events) {
    if (ev.kind == comm::ScheduleEventKind::StepEnd) {
      ++step;
    } else if (step == 1 && ev.kind == comm::ScheduleEventKind::Send &&
               ev.coll == comm::Coll::AllReduce) {
      ev.bytes += 4;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const auto v = check_traffic(rec, expect);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].kind, ViolationKind::TrafficMismatch);
  EXPECT_EQ(v[0].rank, 0);
}

/// Records an Overlapped 1.5D run on a 2×2 grid with compute annotated at
/// `seconds_per_flop` (0 records no Compute events).
comm::ScheduleRecording record_integrated(double seconds_per_flop) {
  const AnalyzerConfig cfg = make_config(TrainerKind::Integrated15D, {2, 2},
                                         ReduceMode::Overlapped);
  const nn::Dataset data = nn::make_synthetic_dataset(
      cfg.specs.front().d_in(), cfg.specs.back().d_out(), cfg.batch, 3);
  nn::TrainConfig tc;
  tc.batch = cfg.batch;
  tc.iterations = cfg.iterations;
  comm::World world(4);
  world.enable_schedule_recording();
  world.run([&](comm::Comm& c) {
    (void)parallel::train_integrated_15d(c, cfg.grid, cfg.specs, data, tc,
                                         cfg.seed, cfg.mode, seconds_per_flop);
  });
  return world.schedule_recording();
}

TEST(Extract, ComputeEventsAreInvisibleToTheChecks) {
  // Annotated compute lands in the same log the analyzer reads; every check
  // must pass with it as without it, and the Send bytes must not move.
  const AnalyzerConfig cfg = make_config(TrainerKind::Integrated15D, {2, 2},
                                         ReduceMode::Overlapped);
  const TrafficExpectation expect = expectation_for(cfg);
  const comm::ScheduleRecording timed = record_integrated(1e-7);
  const comm::ScheduleRecording bare = record_integrated(0.0);
  std::size_t computes = 0;
  for (const auto& rank : timed.ranks)
    for (const auto& ev : rank.events) {
      if (ev.kind == comm::ScheduleEventKind::Compute) ++computes;
    }
  EXPECT_GT(computes, 0u);
  EXPECT_EQ(timed.total_events(), bare.total_events() + computes);
  for (const auto* rec : {&timed, &bare}) {
    const auto v = run_all_checks(*rec, &expect);
    EXPECT_TRUE(v.empty()) << describe_all(v);
  }
  const auto sent_bytes = [](const comm::ScheduleRecording& rec, int r) {
    std::uint64_t n = 0;
    for (const auto& ev : rec.ranks[static_cast<std::size_t>(r)].events) {
      if (ev.kind == comm::ScheduleEventKind::Send) n += ev.bytes;
    }
    return n;
  };
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(sent_bytes(timed, r), 0u) << "rank " << r;
    EXPECT_EQ(sent_bytes(timed, r), sent_bytes(bare, r)) << "rank " << r;
  }
}

TEST(Extract, ExpectationMatchesConfig) {
  const AnalyzerConfig cfg =
      make_config(TrainerKind::Hybrid, {4, 2}, ReduceMode::Blocking);
  const TrafficExpectation e = expectation_for(cfg);
  EXPECT_EQ(e.kind, TrainerKind::Hybrid);
  EXPECT_EQ(e.pr, 4);
  EXPECT_EQ(e.pc, 2);
  EXPECT_EQ(e.batch, cfg.batch);
  EXPECT_EQ(e.specs.size(), cfg.specs.size());
}

}  // namespace
}  // namespace mbd::analysis
