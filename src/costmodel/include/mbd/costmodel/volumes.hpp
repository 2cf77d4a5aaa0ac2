// Exact per-iteration traffic of the seven distributed trainers, in closed
// form.
//
// These are not the α–β *time* model (strategy.hpp) but exact byte counts
// of what the implemented collectives move per SGD iteration. Comparing
// them against mbd::comm's instrumented counters is the strongest form of
// validation this project does: the paper's bandwidth terms (Eqs. 3, 4, 7,
// 8) are per-process word counts of exactly these collectives, so measured
// == predicted certifies the formulas against running code.
//
// trainer_rank_volume gives the bytes *one* rank sends; trainer_total_volume
// sums it over every rank of the grid. The per-rank form matters because
// the implemented algorithms are rank-asymmetric: the ring all-reduce's
// uneven ⌊n·b/p⌋ blocks and the ring all-gatherv's uneven origin blocks
// give different ranks different send volumes, even though the totals stay
// closed form.
//
// These are the reference the static schedule analyzer (mbd/analysis)
// compares extracted schedules against byte-for-byte: analyzer-summed Send
// events per rank per iteration must equal trainer_rank_volume exactly. The
// measured-counter tests compare trainer_total_volume with the fabric's
// per-iteration byte deltas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "mbd/nn/layer_spec.hpp"

namespace mbd::costmodel {

/// Which distributed trainer a volume prediction describes.
enum class TrainerKind {
  BatchParallel,
  ModelParallel,
  Integrated15D,
  DomainParallel,
  Hybrid,
  MixedGrid,
  Pipeline,
};

/// Stable lowercase name ("batch", "model", "integrated", "domain",
/// "hybrid", "mixed", "pipeline") used in reports and CLI arguments.
std::string_view trainer_kind_name(TrainerKind k);

/// Bytes sent per SGD iteration (by one rank, or by all), by traffic class.
struct RankVolume {
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t allgather_bytes = 0;
  std::uint64_t p2p_bytes = 0;  ///< halo exchanges

  std::uint64_t total() const {
    return allreduce_bytes + allgather_bytes + p2p_bytes;
  }
  RankVolume& operator+=(const RankVolume& o) {
    allreduce_bytes += o.allreduce_bytes;
    allgather_bytes += o.allgather_bytes;
    p2p_bytes += o.p2p_bytes;
    return *this;
  }
};

/// --- exact per-rank send words of the implemented algorithms --------------

/// Words sent by each rank of the Bruck all-gather of p equal blocks of
/// `block_words` (rank-symmetric): Σ_{k=1,2,4,…<p} min(k, p−k)·block_words.
std::uint64_t allgather_bruck_send_words(int p, std::uint64_t block_words);

/// Words rank `rank` sends in the ring all-gatherv of per-origin blocks
/// `block_words` (step s forwards the block that originated at rank−s):
/// Σ_{s=0..p−2} block_words[(rank−s) mod p].
std::uint64_t allgather_ringv_send_words(
    const std::vector<std::uint64_t>& block_words, int rank);

/// Words rank `rank` sends in the ring all-reduce of an n-word vector
/// (uneven ⌊n·b/p⌋ partition; reduce-scatter + all-gather phases).
std::uint64_t allreduce_ring_send_words(int p, std::size_t n, int rank);

/// --- per-trainer closed forms ---------------------------------------------

/// Exact bytes rank `rank` (global, row-major on the Pr×Pc grid: row =
/// rank/pc, col = rank%pc) sends per iteration when training `specs` with
/// the given trainer. Pure trainers (batch/model/domain) run on p = pr·pc
/// ranks and ignore the grid shape. Mirrors mbd/parallel exactly: FC
/// all-gathers use Bruck when the row count divides evenly and the ring
/// all-gatherv otherwise, conv stacks halo-exchange and all-reduce per
/// layer, and the mixed grid pays the Eq. 6 redistribution all-gatherv.
/// Setup traffic (communicator splits, final parameter assembly) and the
/// loss reduction are excluded; tests measure per-iteration deltas of the
/// fabric's counters to factor them out.
///
/// The 1F1B pipeline trainer runs on p = pr·pc ranks as a linear chain of
/// layer groups (MLP only). Its per-iteration point-to-point volume is
/// independent of the microbatch count — the microbatch column blocks of B
/// sum back to B — so rank k sends exactly
///   4·B·(d_boundary(k)·[k < p−1] + d_boundary(k−1)·[k > 0])
/// bytes, where d_boundary(k) is the output width of rank k's last owned
/// layer; no collective moves a byte.
RankVolume trainer_rank_volume(TrainerKind kind,
                               const std::vector<nn::LayerSpec>& specs,
                               std::size_t batch, int pr, int pc, int rank);

/// Bytes all pr·pc ranks together send per iteration: the sum of
/// trainer_rank_volume over every rank, by traffic class.
RankVolume trainer_total_volume(TrainerKind kind,
                                const std::vector<nn::LayerSpec>& specs,
                                std::size_t batch, int pr, int pc);

}  // namespace mbd::costmodel
