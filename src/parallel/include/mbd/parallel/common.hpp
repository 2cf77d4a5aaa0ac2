// Shared pieces of the distributed trainers: block partitions, batch slicing
// in the matrix layout, and the result type every trainer returns.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "mbd/comm/comm.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/support/rng.hpp"
#include "mbd/tensor/matrix.hpp"

namespace mbd::parallel {

struct RecoveryContext;
struct EngineLayout;

/// Half-open index range.
struct Range {
  std::size_t lo = 0, hi = 0;
  std::size_t size() const { return hi - lo; }
};

/// Grid shape: pr·pc must equal comm.size(). Pure trainers ignore it.
struct GridShape {
  int pr = 1;
  int pc = 1;
};

/// How the layer-engine completes the ∆W gradient reductions of a backward
/// pass. Blocking reduces each layer's gradient in place inside its backward
/// step (the paper's baseline schedule). Overlapped issues them as
/// nonblocking ring all-reduces and drains them behind the remaining layers'
/// GEMMs (Fig. 8's comm/compute overlap); the ring schedule is identical, so
/// byte counts and numerics match Blocking bit for bit.
enum class ReduceMode { Blocking, Overlapped };

/// Canonical block partition (same convention as Comm::block_lo, so trainer
/// partitions line up with reduce_scatter blocks).
Range block_range(std::size_t n, int parts, int index);

/// Result of a distributed training run, as observed on every rank.
struct DistResult {
  /// Mean global loss per iteration (identical on all ranks).
  std::vector<double> losses;
  /// Flattened final parameters, assembled to the full (unpartitioned)
  /// network layout on every rank — directly comparable with
  /// Network::save_params() of the sequential reference.
  std::vector<float> params;
};

/// Columns [start, start+count) of the dataset taken cyclically (the same
/// wrap-around slicing train_sgd uses), with matching labels.
struct BatchSlice {
  tensor::Matrix inputs;   ///< d × count
  std::vector<int> labels;
};
BatchSlice batch_slice(const nn::Dataset& data, std::size_t start,
                       std::size_t count);

/// All-reduce (sum) a double scalar via gather-to-0 + broadcast so the
/// AllReduce traffic class stays reserved for gradient reductions, which the
/// validation tests count exactly.
double sum_scalar(comm::Comm& comm, double value);

/// He-initialised d_out × d_in weight matrix, drawn with the exact stream
/// nn::build_network uses (scale √(2/d_in)). Every trainer draws its weights
/// through these two helpers so all trainers provably start from the weights
/// of the sequential reference.
tensor::Matrix he_init_full(std::size_t d_out, std::size_t d_in, Rng& rng);

/// Row-partitioned variant: draws the FULL matrix (keeping the random stream
/// aligned with the replicated layout) and returns rows [rows.lo, rows.hi).
tensor::Matrix he_init_rows(std::size_t d_out, std::size_t d_in, Rng& rng,
                            Range rows);

/// --- trainer registry -----------------------------------------------------
/// The single name → builder table every sweep tool iterates, so a new
/// trainer appears in mbd_analyze, mbd_launch, and obs_smoke (and any
/// future sweep) by adding one registry entry instead of three lists.

/// Options every builder accepts; fields a trainer has no use for are
/// ignored (pure trainers ignore `grid`, everything but the pipeline
/// ignores `microbatches`).
struct TrainerOptions {
  GridShape grid;
  std::uint64_t seed = 42;
  ReduceMode mode = ReduceMode::Blocking;
  double seconds_per_flop = 0.0;
  const RecoveryContext* recovery = nullptr;
  std::size_t microbatches = 2;      ///< pipeline only
  bool overlap_halo = false;         ///< domain/hybrid only
};

/// What network shapes a trainer accepts — sweep tools pick the matching
/// workload (MLP for the FC-only trainers, a deeper MLP for the pipeline's
/// one-layer-per-rank floor, conv nets for the domain/halo and pooled
/// mixed-grid phases).
enum class TrainerWorkload { Mlp, DeepMlp, ConvHalo, ConvPool };

/// One registered trainer: its costmodel identity, its two stable names
/// (the costmodel/CLI name and the launch/obs case name — they differ for
/// historical reasons), the workload class, the uniform training entry
/// point, and the stage-layout builder (the same configuration as a value,
/// for executors other than the training loop — see engine_layout.hpp).
struct TrainerEntry {
  costmodel::TrainerKind kind;
  std::string_view name;         ///< costmodel name, e.g. "integrated"
  std::string_view launch_name;  ///< case name, e.g. "integrated_15d"
  TrainerWorkload workload;
  DistResult (*run)(comm::Comm&, const TrainerOptions&,
                    const std::vector<nn::LayerSpec>&, const nn::Dataset&,
                    const nn::TrainConfig&);
  EngineLayout (*layout)(comm::Comm&, const TrainerOptions&,
                         const std::vector<nn::LayerSpec>&,
                         std::size_t batch);
};

/// All trainers, in the canonical sweep order.
std::span<const TrainerEntry> trainer_registry();

/// Look up by either name; nullptr when unknown.
const TrainerEntry* find_trainer(std::string_view name);

/// Look up by costmodel kind (every kind is registered).
const TrainerEntry& trainer_for(costmodel::TrainerKind kind);

}  // namespace mbd::parallel
