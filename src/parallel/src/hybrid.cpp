#include "mbd/parallel/hybrid.hpp"

#include <memory>

#include "mbd/parallel/engine_layout.hpp"
#include "mbd/parallel/layer_engine.hpp"
#include "mbd/support/check.hpp"

namespace mbd::parallel {

using detail::DomainConvState;
using tensor::Matrix;

EngineLayout build_hybrid_layout(comm::Comm& comm, const TrainerOptions& opts,
                                 const std::vector<nn::LayerSpec>& specs,
                                 std::size_t batch) {
  const GridShape grid = opts.grid;
  MBD_CHECK_EQ(grid.pr * grid.pc, comm.size());
  MBD_CHECK_LE(static_cast<std::size_t>(grid.pc), batch);
  const int rank = comm.rank();
  const int row = rank / grid.pc;  // domain/model index along Pr
  const int col = rank % grid.pc;  // batch index along Pc

  EngineLayout lay;
  lay.groups.push_back(
      std::make_unique<comm::Comm>(comm.split(/*color=*/col, /*key=*/row)));
  lay.groups.push_back(
      std::make_unique<comm::Comm>(comm.split(/*color=*/row, /*key=*/col)));
  comm::Comm* model_group = lay.groups[0].get();
  comm::Comm* batch_group = lay.groups[1].get();
  MBD_CHECK_EQ(model_group->size(), grid.pr);
  MBD_CHECK_EQ(batch_group->size(), grid.pc);

  // --- build partitioned state (weight stream identical to build_network) --
  std::vector<DomainConvState> convs;
  std::vector<double> conv_macs;  // full-image MACs/sample, scaled below
  std::vector<FcStage::Config> fc_cfgs;
  std::vector<Matrix> fc_weights;
  Rng rng(opts.seed);
  bool seen_fc = false;
  std::size_t img_h = 0;
  for (const auto& s : specs) {
    if (s.kind == nn::LayerKind::Conv) {
      MBD_CHECK_MSG(!seen_fc, "conv layer '" << s.name << "' after FC layers");
      const auto& g = s.conv;
      MBD_CHECK_MSG(g.stride == 1 && g.kernel_h % 2 == 1 &&
                        g.kernel_h == g.kernel_w && g.pad == g.kernel_h / 2,
                    "hybrid trainer needs stride-1 odd-kernel same-pad convs");
      if (img_h == 0) img_h = g.in_h;
      MBD_CHECK_EQ(g.in_h, img_h);
      DomainConvState l;
      l.geom = g;
      l.relu_after = s.relu_after;
      l.overlap_halo = opts.overlap_halo;
      l.w = he_init_full(g.out_c, g.in_c * g.kernel_h * g.kernel_w, rng);
      l.dw = Matrix(l.w.rows(), l.w.cols());
      convs.push_back(std::move(l));
      conv_macs.push_back(static_cast<double>(s.macs_per_sample()));
    } else if (s.kind == nn::LayerKind::FullyConnected) {
      seen_fc = true;
      FcStage::Config c;
      c.d_in = s.fc_in;
      c.d_out = s.fc_out;
      c.relu_after = s.relu_after;
      c.model_group = model_group;
      c.batch_group = batch_group;
      c.rows = block_range(s.fc_out, grid.pr, row);
      // Unlike the FC-only trainers, the first FC layer's ∆X is still
      // needed to backpropagate into the conv stack.
      c.compute_dx = true;
      fc_cfgs.push_back(c);
      fc_weights.push_back(he_init_rows(s.fc_out, s.fc_in, rng, c.rows));
    } else {
      MBD_CHECK_MSG(false, "hybrid trainer does not support pooling ('"
                               << s.name << "')");
    }
  }
  MBD_CHECK(!convs.empty());
  MBD_CHECK(!fc_cfgs.empty());
  MBD_CHECK_MSG(static_cast<std::size_t>(grid.pr) <= img_h,
                "more Pr ranks than image rows");
  const Range rows = block_range(img_h, grid.pr, row);

  lay.sched.input_cols = block_range(batch, grid.pc, col);
  lay.sched.label_cols = lay.sched.input_cols;
  lay.sched.sum_loss = true;
  lay.sched.loss_replicas = grid.pr;
  lay.sched.mode = opts.mode;
  lay.sched.seconds_per_flop = opts.seconds_per_flop;
  lay.input = {grid.pc, col};
  // Each column group's FC tail ends with full logits of batch block j;
  // the group's row-0 member is global rank j.
  lay.output.parts = grid.pc;
  for (int j = 0; j < grid.pc; ++j) lay.output.owners.push_back(j);
  lay.d_in = specs.front().d_in();
  lay.d_out = specs.back().d_out();

  // Conv stack: domain-parallel within the model group (LD layers); ∆W
  // all-reduced over ALL processes (weights are replicated everywhere).
  const auto& g0 = convs.front().geom;
  lay.stages.push_back(
      std::make_unique<SlabScatterStage>(g0.in_c, g0.in_h, g0.in_w, rows));
  const auto& gl = convs.back().geom;
  const std::size_t last_out_c = gl.out_c;
  const std::size_t last_in_w = gl.in_w;
  const double slab_frac =
      static_cast<double>(rows.size()) / static_cast<double>(img_h);
  for (std::size_t li = 0; li < convs.size(); ++li)
    lay.stages.push_back(std::make_unique<DomainConvStage>(
        std::move(convs[li]), /*conv_group=*/model_group,
        /*reduce_group=*/&comm, conv_macs[li] * slab_frac));
  lay.stages.push_back(std::make_unique<SlabGatherStage>(
      model_group, last_out_c, img_h, last_in_w, rows));
  // FC tail: 1.5D model-parallel over Pr (LM layers).
  for (std::size_t li = 0; li < fc_cfgs.size(); ++li)
    lay.stages.push_back(
        std::make_unique<FcStage>(fc_cfgs[li], std::move(fc_weights[li])));
  return lay;
}

DistResult train_hybrid(comm::Comm& comm, GridShape grid,
                        const std::vector<nn::LayerSpec>& specs,
                        const nn::Dataset& data, const nn::TrainConfig& cfg,
                        std::uint64_t seed, bool overlap_halo,
                        ReduceMode mode,
                        const RecoveryContext* recovery,
                        double seconds_per_flop) {
  TrainerOptions opts;
  opts.grid = grid;
  opts.seed = seed;
  opts.mode = mode;
  opts.seconds_per_flop = seconds_per_flop;
  opts.overlap_halo = overlap_halo;
  return train_layout(comm, build_hybrid_layout(comm, opts, specs, cfg.batch),
                      data, cfg, recovery);
}

}  // namespace mbd::parallel
