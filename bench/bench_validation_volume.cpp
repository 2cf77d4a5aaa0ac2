// Validation bench (not a paper figure): runs every distributed trainer on
// in-process ranks and compares the INSTRUMENTED per-iteration communication
// volume against the closed-form predictions derived from the paper's
// formulas. This certifies Eqs. 3, 4, 7, 8 bandwidth terms against executed
// collectives — something the paper (analysis-only) did not do.
#include <functional>
#include <iostream>

#include "common.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/parallel/batch_parallel.hpp"
#include "mbd/parallel/domain_parallel.hpp"
#include "mbd/parallel/hybrid.hpp"
#include "mbd/parallel/integrated.hpp"
#include "mbd/parallel/mixed_grid.hpp"
#include "mbd/parallel/model_parallel.hpp"
#include "mbd/support/units.hpp"

namespace {

using namespace mbd;
using costmodel::RankVolume;
using costmodel::TrainerKind;
using costmodel::trainer_total_volume;
using parallel::GridShape;

RankVolume measure(int p,
                   const std::function<void(comm::Comm&, std::size_t)>& fn) {
  auto run = [&](std::size_t iters) {
    comm::World world(p);
    world.run([&](comm::Comm& c) { fn(c, iters); });
    return world.stats();
  };
  const auto s1 = run(1);
  const auto s3 = run(3);
  RankVolume t;
  t.allreduce_bytes =
      (s3[comm::Coll::AllReduce].bytes - s1[comm::Coll::AllReduce].bytes) / 2;
  t.allgather_bytes =
      (s3[comm::Coll::AllGather].bytes - s1[comm::Coll::AllGather].bytes) / 2;
  t.p2p_bytes =
      (s3[comm::Coll::PointToPoint].bytes - s1[comm::Coll::PointToPoint].bytes) / 2;
  return t;
}

void report(TextTable& t, const std::string& name,
            const RankVolume& measured, const RankVolume& predicted) {
  auto row = [&](const char* what, std::uint64_t meas, std::uint64_t pred) {
    t.row()
        .add(name)
        .add(what)
        .add(format_bytes(static_cast<double>(meas)))
        .add(format_bytes(static_cast<double>(pred)))
        .add(meas == pred ? "EXACT" : "MISMATCH");
  };
  row("allreduce", measured.allreduce_bytes, predicted.allreduce_bytes);
  row("allgather", measured.allgather_bytes, predicted.allgather_bytes);
  row("halo(p2p)", measured.p2p_bytes, predicted.p2p_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  mbd::bench::open_json_sink(argc, argv, "bench_validation_volume");
  bench::print_table1_banner(
      "Validation — measured vs predicted communication volume per iteration");
  std::cout << "Executable trainers on thread ranks (small networks);"
               " per-iteration byte deltas, totals over all ranks.\n\n";

  const auto mlp = nn::mlp_spec({10, 24, 12, 12});
  const auto mlp_data = nn::make_synthetic_dataset(10, 12, 48, 1);
  std::vector<nn::LayerSpec> cnn;
  cnn.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  cnn.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  cnn.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  cnn.push_back(nn::fc_spec("fc2", 16, 8, false));
  const auto cnn_data = nn::make_synthetic_dataset(2 * 8 * 8, 8, 32, 2);

  nn::TrainConfig cfg;
  cfg.batch = 16;
  cfg.lr = 0.01f;

  TextTable t({"trainer", "traffic", "measured", "predicted", "verdict"});

  {
    const int p = 4;
    const auto meas = measure(p, [&](comm::Comm& c, std::size_t it) {
      auto c2 = cfg;
      c2.iterations = it;
      (void)parallel::train_batch_parallel(c, mlp, mlp_data, c2);
    });
    report(t, "batch (Eq.4) P=4", meas,
           trainer_total_volume(TrainerKind::BatchParallel, mlp, cfg.batch, 1,
                                p));
  }
  {
    const int p = 6;
    const auto meas = measure(p, [&](comm::Comm& c, std::size_t it) {
      auto c2 = cfg;
      c2.iterations = it;
      (void)parallel::train_model_parallel(c, mlp, mlp_data, c2);
    });
    report(t, "model (Eq.3) P=6", meas,
           trainer_total_volume(TrainerKind::ModelParallel, mlp, cfg.batch, p,
                                1));
  }
  {
    const GridShape grid{3, 4};
    const auto meas = measure(12, [&](comm::Comm& c, std::size_t it) {
      auto c2 = cfg;
      c2.iterations = it;
      (void)parallel::train_integrated_15d(c, grid, mlp, mlp_data, c2);
    });
    report(t, "1.5D (Eq.8) 3x4", meas,
           trainer_total_volume(TrainerKind::Integrated15D, mlp, cfg.batch,
                                grid.pr, grid.pc));
  }
  {
    const int p = 4;
    nn::TrainConfig c8 = cfg;
    c8.batch = 8;
    const auto meas = measure(p, [&](comm::Comm& c, std::size_t it) {
      auto c2 = c8;
      c2.iterations = it;
      (void)parallel::train_domain_parallel(c, cnn, cnn_data, c2);
    });
    report(t, "domain (Eq.7) P=4", meas,
           trainer_total_volume(TrainerKind::DomainParallel, cnn, c8.batch, p,
                                1));
  }
  {
    const GridShape grid{2, 4};
    nn::TrainConfig c8 = cfg;
    c8.batch = 8;
    const auto meas = measure(8, [&](comm::Comm& c, std::size_t it) {
      auto c2 = c8;
      c2.iterations = it;
      (void)parallel::train_hybrid(c, grid, cnn, cnn_data, c2);
    });
    report(t, "hybrid (Eq.9) 2x4", meas,
           trainer_total_volume(TrainerKind::Hybrid, cnn, c8.batch, grid.pr,
                                grid.pc));
  }

  {
    // Mixed grid (Fig. 7 executable): conv batch-parallel + Eq. 6
    // redistribution + 1.5D FC. Uses the pooled CNN since pooling is
    // allowed in the batch-parallel conv phase.
    const auto pooled = nn::small_cnn_spec(2, 8, 8);
    const auto pooled_data = nn::make_synthetic_dataset(2 * 8 * 8, 8, 32, 3);
    const GridShape grid{2, 4};
    nn::TrainConfig c8 = cfg;
    c8.batch = 8;
    const auto meas = measure(8, [&](comm::Comm& c, std::size_t it) {
      auto c2 = c8;
      c2.iterations = it;
      (void)parallel::train_mixed_grid(c, grid, pooled, pooled_data, c2);
    });
    report(t, "mixed (Fig.7 exec) 2x4", meas,
           trainer_total_volume(TrainerKind::MixedGrid, pooled, c8.batch,
                                grid.pr, grid.pc));
  }

  t.print(std::cout);
  std::cout << "\nEvery row must read EXACT: the cost model's bandwidth terms"
               " are exact word counts of the executed collectives.\n";
  return 0;
}
