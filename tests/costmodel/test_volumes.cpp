// The per-rank volume closed forms, checked against independent facts: the
// collectives' per-rank send words sum to their known totals, and the 1.5D
// trainer's volumes reduce rank by rank to the pure batch- and
// model-parallel ones at the grid edges (Eq. 8 → Eq. 4 and Eq. 8 → Eq. 3).
// The measured-counter tests (tests/parallel/test_validation.cpp) and the
// schedule analyzer pin the same forms to bytes the fabric actually moved.
#include "mbd/costmodel/volumes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mbd/nn/models.hpp"

namespace mbd::costmodel {
namespace {

void expect_equal(const RankVolume& a, const RankVolume& b) {
  EXPECT_EQ(a.allreduce_bytes, b.allreduce_bytes);
  EXPECT_EQ(a.allgather_bytes, b.allgather_bytes);
  EXPECT_EQ(a.p2p_bytes, b.p2p_bytes);
}

TEST(Volumes, BruckSendWordsSumToAllGatherTotal) {
  // Every rank of the Bruck all-gather sends Σ min(2^i, p−2^i)·m words, and
  // p ranks together move the collective's total (p−1)·p·m words.
  for (int p : {2, 3, 4, 5, 8}) {
    const std::uint64_t m = 17;
    std::uint64_t total = 0;
    for (int r = 0; r < p; ++r) total += allgather_bruck_send_words(p, m);
    EXPECT_EQ(total, static_cast<std::uint64_t>(p) * (p - 1) * m) << "p=" << p;
  }
}

TEST(Volumes, RingvSendWordsSumToAllGatherTotal) {
  // The ring all-gatherv forwards every origin block through p−1 hops.
  const std::vector<std::uint64_t> blocks = {5, 0, 7, 3};
  const int p = static_cast<int>(blocks.size());
  std::uint64_t sum_blocks = 0;
  for (const auto b : blocks) sum_blocks += b;
  std::uint64_t total = 0;
  for (int r = 0; r < p; ++r) total += allgather_ringv_send_words(blocks, r);
  EXPECT_EQ(total, static_cast<std::uint64_t>(p - 1) * sum_blocks);
}

TEST(Volumes, RingAllReduceSendWordsSumToTotal) {
  // Reduce-scatter + all-gather over uneven ⌊n·b/p⌋ blocks: all ranks
  // together send 2(p−1)·n words regardless of how the blocks divide.
  for (int p : {2, 3, 4, 7}) {
    for (std::size_t n : {16u, 23u, 1024u}) {
      std::uint64_t total = 0;
      for (int r = 0; r < p; ++r) total += allreduce_ring_send_words(p, n, r);
      EXPECT_EQ(total, 2u * static_cast<std::uint64_t>(p - 1) * n)
          << "p=" << p << " n=" << n;
    }
  }
}

TEST(Volumes, Integrated15DGridEdgesAreBatchAndModelParallel) {
  // Eq. 8 degenerates to Eq. 4 on a 1 × P grid (no model split: only the
  // ∆W all-reduce over all P is left) and to Eq. 3 on a P × 1 grid (no
  // batch split: the Y all-gather and ∆X all-reduce over all P). The
  // identities hold rank by rank, uneven blocks included, because an FC
  // layer's weight_count() is exactly fc_in·fc_out.
  const std::vector<std::vector<nn::LayerSpec>> nets = {
      nn::mlp_spec({10, 24, 12, 12}),  // d_out divisible by 2, 3, 4
      nn::mlp_spec({10, 19, 7, 13}),   // d_out divisible by none of P
  };
  for (const auto& specs : nets) {
    for (const std::size_t batch : {std::size_t{16}, std::size_t{11}}) {
      for (const int p : {2, 3, 4, 8}) {
        for (int r = 0; r < p; ++r) {
          SCOPED_TRACE("d_out " + std::to_string(specs[0].fc_out) +
                       " batch " + std::to_string(batch) + " p " +
                       std::to_string(p) + " rank " + std::to_string(r));
          expect_equal(
              trainer_rank_volume(TrainerKind::Integrated15D, specs, batch,
                                  1, p, r),
              trainer_rank_volume(TrainerKind::BatchParallel, specs, batch,
                                  1, p, r));
          expect_equal(
              trainer_rank_volume(TrainerKind::Integrated15D, specs, batch,
                                  p, 1, r),
              trainer_rank_volume(TrainerKind::ModelParallel, specs, batch,
                                  p, 1, r));
        }
      }
    }
  }
}

TEST(Volumes, TrainerKindNamesAreStable) {
  EXPECT_EQ(trainer_kind_name(TrainerKind::BatchParallel), "batch");
  EXPECT_EQ(trainer_kind_name(TrainerKind::ModelParallel), "model");
  EXPECT_EQ(trainer_kind_name(TrainerKind::Integrated15D), "integrated");
  EXPECT_EQ(trainer_kind_name(TrainerKind::DomainParallel), "domain");
  EXPECT_EQ(trainer_kind_name(TrainerKind::Hybrid), "hybrid");
  EXPECT_EQ(trainer_kind_name(TrainerKind::MixedGrid), "mixed");
}

}  // namespace
}  // namespace mbd::costmodel
