#include "mbd/parallel/domain_parallel.hpp"

#include <memory>

#include "mbd/parallel/engine_layout.hpp"
#include "mbd/parallel/layer_engine.hpp"
#include "mbd/support/check.hpp"

namespace mbd::parallel {

using detail::DomainConvState;
using tensor::Matrix;

EngineLayout build_domain_parallel_layout(
    comm::Comm& comm, const TrainerOptions& opts,
    const std::vector<nn::LayerSpec>& specs, std::size_t batch) {
  const int p = comm.size();
  const int r = comm.rank();

  // Validate the spec structure (conv stack, then FC tail) and build the
  // partitioned state with the exact weight stream of build_network.
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
                    "domain trainer needs stride-1 odd-kernel same-pad convs; '"
                        << s.name << "' violates this");
      if (img_h == 0) img_h = g.in_h;
      MBD_CHECK_EQ(g.in_h, img_h);  // same-pad keeps height constant
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
      c.model_group = nullptr;   // replicated FC tail, no model comm
      c.batch_group = nullptr;   // full batch everywhere: ∆W already complete
      c.rows = {0, s.fc_out};
      c.compute_dx = true;  // the conv stack below always needs ∆X
      fc_cfgs.push_back(c);
      fc_weights.push_back(he_init_full(s.fc_out, s.fc_in, rng));
    } else {
      MBD_CHECK_MSG(false, "domain trainer does not support pooling ('"
                               << s.name << "')");
    }
  }
  MBD_CHECK(!convs.empty());
  MBD_CHECK_MSG(static_cast<std::size_t>(p) <= img_h,
                "more ranks (" << p << ") than image rows (" << img_h << ")");
  const Range rows = block_range(img_h, p, r);

  EngineLayout lay;
  // Every process reads the whole mini-batch but keeps only its image rows;
  // the loss is computed on replicated logits.
  lay.sched.input_cols = {0, batch};
  lay.sched.label_cols = lay.sched.input_cols;
  lay.sched.mode = opts.mode;
  lay.sched.seconds_per_flop = opts.seconds_per_flop;
  lay.input = {1, 0};
  lay.output.replicated = true;  // replicated FC tail after the slab gather
  lay.d_in = specs.front().d_in();
  lay.d_out = specs.back().d_out();

  const auto& g0 = convs.front().geom;
  lay.stages.push_back(
      std::make_unique<SlabScatterStage>(g0.in_c, g0.in_h, g0.in_w, rows));
  const auto& gl = convs.back().geom;
  const std::size_t last_out_c = gl.out_c;
  const std::size_t last_in_w = gl.in_w;
  // Each rank computes its slab's share of the conv work.
  const double slab_frac =
      static_cast<double>(rows.size()) / static_cast<double>(img_h);
  for (std::size_t li = 0; li < convs.size(); ++li)
    lay.stages.push_back(std::make_unique<DomainConvStage>(
        std::move(convs[li]), /*conv_group=*/&comm, /*reduce_group=*/&comm,
        conv_macs[li] * slab_frac));
  // FC tail: gather the full activation ("the halo is the whole input"),
  // then compute replicated on every process.
  lay.stages.push_back(std::make_unique<SlabGatherStage>(
      &comm, last_out_c, img_h, last_in_w, rows));
  for (std::size_t li = 0; li < fc_cfgs.size(); ++li)
    lay.stages.push_back(
        std::make_unique<FcStage>(fc_cfgs[li], std::move(fc_weights[li])));
  return lay;
}

DistResult train_domain_parallel(comm::Comm& comm,
                                 const std::vector<nn::LayerSpec>& specs,
                                 const nn::Dataset& data,
                                 const nn::TrainConfig& cfg,
                                 std::uint64_t seed, bool overlap_halo,
                                 ReduceMode mode,
                                 const RecoveryContext* recovery,
                                 double seconds_per_flop) {
  TrainerOptions opts;
  opts.seed = seed;
  opts.mode = mode;
  opts.seconds_per_flop = seconds_per_flop;
  opts.overlap_halo = overlap_halo;
  return train_layout(
      comm, build_domain_parallel_layout(comm, opts, specs, cfg.batch), data,
      cfg, recovery);
}

}  // namespace mbd::parallel
