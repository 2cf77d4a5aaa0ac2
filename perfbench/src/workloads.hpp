// The benchmark's workloads. README.md records why each was chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "mbd/comm/stats.hpp"
#include "mbd/nn/layer_spec.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/parallel/common.hpp"
#include "timed_stage.hpp"

namespace perfbench {

/// A distributed training configuration driven through the trainer
/// registry's layout builder and parallel::train_layout.
struct TrainWorkload {
  std::string name;
  std::string trainer;  ///< registry name
  mbd::parallel::GridShape grid;
  std::vector<mbd::nn::LayerSpec> specs;
  std::size_t batch = 0;
  mbd::parallel::ReduceMode mode = mbd::parallel::ReduceMode::Blocking;
  std::size_t input_dim = 0, classes = 0, samples = 0;
  std::size_t steps_per_episode = 0;  ///< fixed, so loss_final is too

  mbd::nn::TrainConfig config(std::size_t iterations) const;
};

TrainWorkload train_fc_15d();
TrainWorkload train_conv_hybrid();

/// One World's worth of training: set-up, `iterations` steps, tear-down.
struct TrainEpisode {
  double setup_s = 0;          ///< World start to the first step
  std::vector<double> step_s;  ///< steps 1..n-2, begin to next begin;
                               ///< empty with Timing::Off
  std::vector<double> losses;
  std::vector<float> params;
  mbd::comm::StatsSnapshot traffic;
  std::vector<StageClock> clocks;  ///< per rank; empty with Timing::Off
};

/// Run one episode with weights from kWeightSeed, its stages decorated as
/// `timing` says.
TrainEpisode run_train_episode(const TrainWorkload& w,
                               const mbd::nn::Dataset& data,
                               std::size_t iterations, Timing timing);

Result run_training(const TrainWorkload& w, const RunOptions& opts);
Result run_serving(const RunOptions& opts);

/// Weight-init seed of every workload. --seed varies the data and the
/// arrival schedule only: weights drawn per seed would spread loss_final
/// across seeds far more than the data does.
inline constexpr std::uint64_t kWeightSeed = 42;

}  // namespace perfbench
