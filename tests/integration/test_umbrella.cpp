// The umbrella header must compile cleanly and expose the whole public API.
#include "mbd/mbd.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, ExposesEverySubsystem) {
  // One symbol per subsystem, referenced through the umbrella include only.
  mbd::Rng rng(1);
  EXPECT_GT(rng.uniform(), -1.0);

  mbd::comm::World world(2);
  world.run([](mbd::comm::Comm& c) { c.barrier(); });

  const auto m = mbd::tensor::Matrix::filled(2, 2, 1.0f);
  EXPECT_FLOAT_EQ(mbd::tensor::frobenius_norm(m), 2.0f);

  const auto specs = mbd::nn::mlp_spec({4, 8, 2});
  EXPECT_EQ(mbd::nn::total_weights(specs), 4u * 8 + 8 * 2);

  const auto machine = mbd::costmodel::MachineModel::cori_knl();
  EXPECT_GT(machine.word_time(), 0.0);

  const auto pred = mbd::costmodel::trainer_total_volume(
      mbd::costmodel::TrainerKind::BatchParallel, specs, /*batch=*/8, 1, 4);
  EXPECT_GT(pred.allreduce_bytes, 0u);
}

}  // namespace
