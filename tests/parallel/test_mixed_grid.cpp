// Mixed-grid trainer (Fig. 7 executable): batch-parallel conv stack,
// Eq. 6 redistribution, 1.5D FC.
#include "mbd/parallel/mixed_grid.hpp"

#include <gtest/gtest.h>

#include "mbd/costmodel/volumes.hpp"
#include "mbd/parallel/batch_parallel.hpp"
#include "parallel_test_util.hpp"

namespace mbd::parallel {
namespace {

using testing::expect_losses_close;
using testing::expect_params_close;
using testing::run_distributed;
using testing::run_reference;

struct Problem {
  std::vector<nn::LayerSpec> specs;
  nn::Dataset data;
  nn::TrainConfig cfg;
};

/// Conv + pool + FC — pooling and strides are allowed here because the conv
/// phase is pure batch parallel.
Problem mixed_problem() {
  Problem p;
  p.specs = nn::small_cnn_spec(2, 8, 8);  // conv, conv, pool, fc, fc
  p.data = nn::make_synthetic_dataset(2 * 8 * 8, 8, 64, /*seed=*/61);
  p.cfg.batch = 16;
  p.cfg.lr = 0.02f;
  p.cfg.iterations = 4;
  return p;
}

class MixedGridSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MixedGridSweep, MatchesSequential) {
  const auto [pr, pc] = GetParam();
  auto prob = mixed_problem();
  const auto ref = run_reference(prob.specs, prob.data, prob.cfg);
  const auto dist = run_distributed(pr * pc, [&, pr = pr, pc = pc](comm::Comm& c) {
    return train_mixed_grid(c, {pr, pc}, prob.specs, prob.data, prob.cfg);
  });
  expect_losses_close(ref.losses, dist.losses);
  expect_params_close(ref.params, dist.params);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, MixedGridSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{1, 4},
                      std::pair{2, 2}, std::pair{4, 2}, std::pair{2, 4},
                      std::pair{3, 2}, std::pair{5, 3}),
    [](const auto& info) {
      return "pr" + std::to_string(info.param.first) + "_pc" +
             std::to_string(info.param.second);
    });

TEST(MixedGrid, PureBatchDegenerationMatchesBatchTrainer) {
  auto prob = mixed_problem();
  const auto mixed = run_distributed(4, [&](comm::Comm& c) {
    return train_mixed_grid(c, {1, 4}, prob.specs, prob.data, prob.cfg);
  });
  const auto batch = run_distributed(4, [&](comm::Comm& c) {
    return train_batch_parallel(c, prob.specs, prob.data, prob.cfg);
  });
  expect_losses_close(mixed.losses, batch.losses);
  expect_params_close(mixed.params, batch.params);
}

TEST(MixedGrid, TrafficMatchesPrediction) {
  auto prob = mixed_problem();
  for (const auto [pr, pc] : {std::pair{2, 2}, std::pair{3, 2},
                              std::pair{2, 4}}) {
    const GridShape grid{pr, pc};
    auto run = [&](std::size_t iters) {
      comm::World world(pr * pc);
      world.run([&](comm::Comm& c) {
        auto c2 = prob.cfg;
        c2.iterations = iters;
        (void)train_mixed_grid(c, grid, prob.specs, prob.data, c2);
      });
      return world.stats();
    };
    const auto s1 = run(1);
    const auto s3 = run(3);
    const auto pred = costmodel::trainer_total_volume(
        costmodel::TrainerKind::MixedGrid, prob.specs, prob.cfg.batch, pr, pc);
    EXPECT_EQ((s3[comm::Coll::AllReduce].bytes -
               s1[comm::Coll::AllReduce].bytes) / 2,
              pred.allreduce_bytes)
        << pr << "x" << pc;
    EXPECT_EQ((s3[comm::Coll::AllGather].bytes -
               s1[comm::Coll::AllGather].bytes) / 2,
              pred.allgather_bytes)
        << pr << "x" << pc;
  }
}

TEST(MixedGrid, RejectsMoreRanksThanSamples) {
  auto prob = mixed_problem();
  prob.cfg.batch = 3;
  comm::World world(4);
  EXPECT_THROW(world.run([&](comm::Comm& c) {
    (void)train_mixed_grid(c, {2, 2}, prob.specs, prob.data, prob.cfg);
  }),
               Error);
}

TEST(MixedGrid, RejectsFcBeforeConv) {
  std::vector<nn::LayerSpec> bad;
  bad.push_back(nn::fc_spec("fc0", 8, 2 * 4 * 4));
  bad.push_back(nn::conv_spec("conv", 2, 4, 4, 2, 3, 1, 1));
  bad.push_back(nn::fc_spec("fc1", 2 * 4 * 4, 4, false));
  const auto data = nn::make_synthetic_dataset(8, 4, 16, 67);
  nn::TrainConfig cfg;
  cfg.batch = 4;
  comm::World world(2);
  EXPECT_THROW(world.run([&](comm::Comm& c) {
    (void)train_mixed_grid(c, {2, 1}, bad, data, cfg);
  }),
               Error);
}

TEST(MixedGrid, LossDecreases) {
  auto prob = mixed_problem();
  prob.cfg.iterations = 20;
  const auto dist = run_distributed(4, [&](comm::Comm& c) {
    return train_mixed_grid(c, {2, 2}, prob.specs, prob.data, prob.cfg);
  });
  EXPECT_LT(dist.losses.back(), dist.losses.front());
}

}  // namespace
}  // namespace mbd::parallel
