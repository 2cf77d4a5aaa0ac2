#include "mbd/costmodel/volumes.hpp"

#include <algorithm>

#include "mbd/costmodel/collective_costs.hpp"
#include "mbd/support/check.hpp"

namespace mbd::costmodel {
namespace {

constexpr std::uint64_t kWordBytes = sizeof(float);

// Same block convention as Comm::block_lo / parallel::block_range.
std::uint64_t block_size(std::size_t n, int p, int index) {
  const auto lo = (n * static_cast<std::size_t>(index)) /
                  static_cast<std::size_t>(p);
  const auto hi = (n * static_cast<std::size_t>(index + 1)) /
                  static_cast<std::size_t>(p);
  return hi - lo;
}

// Bytes a rank sends in the FC-layer output all-gather: row blocks of
// d_out over p group members carrying b_loc batch columns each. Bruck when
// p divides d_out (FcStage's dispatch), ring all-gatherv otherwise.
std::uint64_t fc_allgather_bytes(std::size_t d_out, int p, std::size_t b_loc,
                                 int group_rank) {
  if (p <= 1) return 0;
  if (d_out % static_cast<std::size_t>(p) == 0) {
    return allgather_bruck_send_words(p, (d_out / static_cast<std::size_t>(p)) *
                                             b_loc) *
           kWordBytes;
  }
  std::vector<std::uint64_t> blocks(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i)
    blocks[static_cast<std::size_t>(i)] = block_size(d_out, p, i) * b_loc;
  return allgather_ringv_send_words(blocks, group_rank) * kWordBytes;
}

// Bytes a rank sends gathering the conv output slabs (detail::gather_slabs):
// height slabs of img_h rows over p members, each slab carrying n_loc
// samples of c channels × w columns. Bruck when p divides img_h.
std::uint64_t slab_allgather_bytes(std::size_t img_h, int p, std::size_t n_loc,
                                   std::size_t c, std::size_t w,
                                   int group_rank) {
  if (p <= 1) return 0;
  if (img_h % static_cast<std::size_t>(p) == 0) {
    return allgather_bruck_send_words(
               p, n_loc * c * (img_h / static_cast<std::size_t>(p)) * w) *
           kWordBytes;
  }
  std::vector<std::uint64_t> blocks(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i)
    blocks[static_cast<std::size_t>(i)] = n_loc * c * block_size(img_h, p, i) * w;
  return allgather_ringv_send_words(blocks, group_rank) * kWordBytes;
}

std::uint64_t ring_allreduce_bytes(int p, std::size_t n, int rank) {
  if (p <= 1) return 0;
  return allreduce_ring_send_words(p, n, rank) * kWordBytes;
}

// Bytes a rank sends halo-exchanging one conv layer (forward + backward):
// interior ranks talk to both neighbours, edge ranks to one.
std::uint64_t halo_bytes(int p, int rank, std::size_t n_loc, std::size_t in_c,
                         std::size_t halo, std::size_t in_w) {
  if (halo == 0 || p <= 1) return 0;
  const std::uint64_t neighbours =
      static_cast<std::uint64_t>(rank > 0) +
      static_cast<std::uint64_t>(rank < p - 1);
  return 2 * neighbours * n_loc * in_c * halo * in_w * kWordBytes;
}

RankVolume batch_parallel_volume(const std::vector<nn::LayerSpec>& specs,
                                 int p, int rank) {
  RankVolume v;
  for (const auto& s : specs) {
    if (!s.has_weights()) continue;
    v.allreduce_bytes += ring_allreduce_bytes(p, s.weight_count(), rank);
  }
  return v;
}

RankVolume model_parallel_volume(const std::vector<nn::LayerSpec>& specs,
                                 std::size_t batch, int p, int rank) {
  RankVolume v;
  bool first = true;
  for (const auto& s : specs) {
    MBD_CHECK(s.kind == nn::LayerKind::FullyConnected);
    v.allgather_bytes += fc_allgather_bytes(s.fc_out, p, batch, rank);
    if (!first)
      v.allreduce_bytes += ring_allreduce_bytes(p, s.fc_in * batch, rank);
    first = false;
  }
  return v;
}

RankVolume integrated_15d_volume(const std::vector<nn::LayerSpec>& specs,
                                 std::size_t batch, int pr, int pc, int rank) {
  RankVolume v;
  const int row = rank / pc;
  const int col = rank % pc;
  const std::size_t b_loc = block_size(batch, pc, col);
  bool first = true;
  for (const auto& s : specs) {
    MBD_CHECK(s.kind == nn::LayerKind::FullyConnected);
    v.allgather_bytes += fc_allgather_bytes(s.fc_out, pr, b_loc, row);
    if (!first)
      v.allreduce_bytes += ring_allreduce_bytes(pr, s.fc_in * b_loc, row);
    v.allreduce_bytes += ring_allreduce_bytes(
        pc, block_size(s.fc_out, pr, row) * s.fc_in, col);
    first = false;
  }
  return v;
}

RankVolume domain_parallel_volume(const std::vector<nn::LayerSpec>& specs,
                                  std::size_t batch, int p, int rank) {
  RankVolume v;
  std::size_t img_h = 0;
  const nn::LayerSpec* last_conv = nullptr;
  for (const auto& s : specs) {
    if (s.kind != nn::LayerKind::Conv) continue;
    const auto& g = s.conv;
    if (img_h == 0) img_h = g.in_h;
    last_conv = &s;
    v.p2p_bytes += halo_bytes(p, rank, batch, g.in_c, g.kernel_h / 2, g.in_w);
    v.allreduce_bytes += ring_allreduce_bytes(p, g.weight_count(), rank);
  }
  MBD_CHECK(last_conv != nullptr);
  const auto& g = last_conv->conv;
  v.allgather_bytes +=
      slab_allgather_bytes(img_h, p, batch, g.out_c, g.out_w(), rank);
  return v;
}

RankVolume hybrid_volume(const std::vector<nn::LayerSpec>& specs,
                         std::size_t batch, int pr, int pc, int rank) {
  RankVolume v;
  const int p = pr * pc;
  const int row = rank / pc;
  const int col = rank % pc;
  const std::size_t b_loc = block_size(batch, pc, col);
  std::size_t img_h = 0;
  const nn::LayerSpec* last_conv = nullptr;
  for (const auto& s : specs) {
    if (s.kind == nn::LayerKind::Conv) {
      const auto& g = s.conv;
      if (img_h == 0) img_h = g.in_h;
      last_conv = &s;
      v.p2p_bytes += halo_bytes(pr, row, b_loc, g.in_c, g.kernel_h / 2, g.in_w);
      // Conv ∆W is all-reduced over ALL processes (weights fully replicated).
      v.allreduce_bytes += ring_allreduce_bytes(p, g.weight_count(), rank);
    } else if (s.kind == nn::LayerKind::FullyConnected) {
      v.allgather_bytes += fc_allgather_bytes(s.fc_out, pr, b_loc, row);
      // Every FC layer's ∆X is reduced — the conv stack below needs even
      // the first FC layer's input gradient.
      v.allreduce_bytes += ring_allreduce_bytes(pr, s.fc_in * b_loc, row);
      v.allreduce_bytes += ring_allreduce_bytes(
          pc, block_size(s.fc_out, pr, row) * s.fc_in, col);
    }
  }
  MBD_CHECK(last_conv != nullptr);
  const auto& g = last_conv->conv;
  v.allgather_bytes +=
      slab_allgather_bytes(img_h, pr, b_loc, g.out_c, g.out_w(), row);
  return v;
}

RankVolume pipeline_volume(const std::vector<nn::LayerSpec>& specs,
                           std::size_t batch, int p, int rank) {
  const std::size_t num_layers = specs.size();
  MBD_CHECK_LE(static_cast<std::size_t>(p), num_layers);
  for (const auto& s : specs) MBD_CHECK(s.kind == nn::LayerKind::FullyConnected);
  // Output width of rank k's last owned layer under the canonical block
  // partition of the layer chain — the activation/gradient boundary between
  // ranks k and k+1.
  const auto boundary = [&](int k) {
    const auto hi = (num_layers * static_cast<std::size_t>(k + 1)) /
                    static_cast<std::size_t>(p);
    return specs[hi - 1].fc_out;
  };
  RankVolume v;
  // Forward activations to rank+1 and backward gradients to rank−1, one
  // message per microbatch; the microbatch column blocks of B sum to B, so
  // the per-iteration volume is microbatch-count-independent.
  if (rank < p - 1) v.p2p_bytes += boundary(rank) * batch * kWordBytes;
  if (rank > 0) v.p2p_bytes += boundary(rank - 1) * batch * kWordBytes;
  return v;
}

RankVolume mixed_grid_volume(const std::vector<nn::LayerSpec>& specs,
                             std::size_t batch, int pr, int pc, int rank) {
  RankVolume v;
  const int p = pr * pc;
  const int row = rank / pc;
  const int col = rank % pc;
  const std::size_t b_loc = block_size(batch, pc, col);
  std::size_t d_conv_out = 0;
  for (const auto& s : specs) {
    switch (s.kind) {
      case nn::LayerKind::Conv:
        // Batch-parallel conv phase: full-weight ring all-reduce over all P.
        v.allreduce_bytes += ring_allreduce_bytes(p, s.weight_count(), rank);
        d_conv_out = s.d_out();
        break;
      case nn::LayerKind::Pool:
        d_conv_out = s.d_out();
        break;
      case nn::LayerKind::FullyConnected:
        v.allgather_bytes += fc_allgather_bytes(s.fc_out, pr, b_loc, row);
        v.allreduce_bytes += ring_allreduce_bytes(pr, s.fc_in * b_loc, row);
        v.allreduce_bytes += ring_allreduce_bytes(
            pc, block_size(s.fc_out, pr, row) * s.fc_in, col);
        break;
    }
  }
  MBD_CHECK_GT(d_conv_out, 0u);
  // Eq. 6 redistribution: always the ring all-gatherv (RedistributeStage),
  // over the model group; member m contributes its conv-phase column block
  // (index col·Pr + m of the canonical P-way batch partition).
  if (pr > 1) {
    std::vector<std::uint64_t> blocks(static_cast<std::size_t>(pr));
    for (int m = 0; m < pr; ++m)
      blocks[static_cast<std::size_t>(m)] =
          d_conv_out * block_size(batch, p, col * pr + m);
    v.allgather_bytes += allgather_ringv_send_words(blocks, row) * kWordBytes;
  }
  return v;
}

}  // namespace

std::string_view trainer_kind_name(TrainerKind k) {
  switch (k) {
    case TrainerKind::BatchParallel: return "batch";
    case TrainerKind::ModelParallel: return "model";
    case TrainerKind::Integrated15D: return "integrated";
    case TrainerKind::DomainParallel: return "domain";
    case TrainerKind::Hybrid: return "hybrid";
    case TrainerKind::MixedGrid: return "mixed";
    case TrainerKind::Pipeline: return "pipeline";
  }
  return "?";
}

std::uint64_t allgather_bruck_send_words(int p, std::uint64_t block_words) {
  MBD_CHECK_GT(p, 0);
  std::uint64_t words = 0;
  for (std::uint64_t k = 1; k < static_cast<std::uint64_t>(p); k <<= 1) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(k, static_cast<std::uint64_t>(p) - k);
    words += chunk * block_words;
  }
  return words;
}

std::uint64_t allgather_ringv_send_words(
    const std::vector<std::uint64_t>& block_words, int rank) {
  const int p = static_cast<int>(block_words.size());
  MBD_CHECK(rank >= 0 && rank < p);
  std::uint64_t words = 0;
  for (int s = 0; s < p - 1; ++s)
    words += block_words[static_cast<std::size_t>((rank - s + p) % p)];
  return words;
}

std::uint64_t allreduce_ring_send_words(int p, std::size_t n, int rank) {
  MBD_CHECK_GT(p, 0);
  MBD_CHECK(rank >= 0 && rank < p);
  // The existing double-valued per-rank count is exact for word counts far
  // below 2^53; round defensively anyway.
  return static_cast<std::uint64_t>(
      allreduce_ring_words_per_rank(static_cast<std::size_t>(p), n,
                                    static_cast<std::size_t>(rank)) +
      0.5);
}

RankVolume trainer_rank_volume(TrainerKind kind,
                               const std::vector<nn::LayerSpec>& specs,
                               std::size_t batch, int pr, int pc, int rank) {
  MBD_CHECK_GT(pr, 0);
  MBD_CHECK_GT(pc, 0);
  const int p = pr * pc;
  MBD_CHECK(rank >= 0 && rank < p);
  switch (kind) {
    case TrainerKind::BatchParallel:
      return batch_parallel_volume(specs, p, rank);
    case TrainerKind::ModelParallel:
      return model_parallel_volume(specs, batch, p, rank);
    case TrainerKind::Integrated15D:
      return integrated_15d_volume(specs, batch, pr, pc, rank);
    case TrainerKind::DomainParallel:
      return domain_parallel_volume(specs, batch, p, rank);
    case TrainerKind::Hybrid:
      return hybrid_volume(specs, batch, pr, pc, rank);
    case TrainerKind::MixedGrid:
      return mixed_grid_volume(specs, batch, pr, pc, rank);
    case TrainerKind::Pipeline:
      return pipeline_volume(specs, batch, p, rank);
  }
  MBD_CHECK(false);
  return {};
}

RankVolume trainer_total_volume(TrainerKind kind,
                                const std::vector<nn::LayerSpec>& specs,
                                std::size_t batch, int pr, int pc) {
  RankVolume total;
  for (int r = 0; r < pr * pc; ++r) {
    total += trainer_rank_volume(kind, specs, batch, pr, pc, r);
  }
  return total;
}

}  // namespace mbd::costmodel
