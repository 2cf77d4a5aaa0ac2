// Forward-only determinism: InferenceSession over every registered
// trainer layout must (a) replicate logits bitwise across ranks, (b) be
// bitwise-identical across repeated runs and across batch compositions
// (a batch of 8 equals eight batches of 1), (c) match the sequential
// reference network's forward pass within float reduction noise, (d) serve
// trained weights published through CheckpointPolicy::final_commit,
// (e) produce bitwise-identical logits over the TCP transport and the
// in-process fabric, and (f) refuse a published checkpoint slot one float
// too short or too long with mbd::Error instead of over-reading it.
#include <gtest/gtest.h>

#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "mbd/comm/transport_tcp.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/parallel/recovery.hpp"
#include "mbd/serve/inference.hpp"
#include "mbd/support/check.hpp"

namespace mbd::serve {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kBuildBatch = 8;  // batch the layouts are built at

struct Workload {
  std::vector<nn::LayerSpec> specs;
  nn::Dataset data;
};

std::vector<nn::LayerSpec> small_conv_net() {
  std::vector<nn::LayerSpec> specs;
  specs.push_back(nn::conv_spec("conv1", 2, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::conv_spec("conv2", 4, 8, 8, 4, 3, 1, 1));
  specs.push_back(nn::fc_spec("fc1", 4 * 8 * 8, 16));
  specs.push_back(nn::fc_spec("fc2", 16, 4, false));
  return specs;
}

Workload workload_for(parallel::TrainerWorkload w) {
  using parallel::TrainerWorkload;
  Workload wl;
  switch (w) {
    case TrainerWorkload::Mlp:
      wl.specs = nn::mlp_spec({24, 32, 10});
      wl.data = nn::make_synthetic_dataset(24, 10, 32, 13);
      break;
    case TrainerWorkload::DeepMlp:
      wl.specs = nn::mlp_spec({24, 22, 20, 12, 10});
      wl.data = nn::make_synthetic_dataset(24, 10, 32, 13);
      break;
    case TrainerWorkload::ConvHalo:
    case TrainerWorkload::ConvPool:
      wl.specs = small_conv_net();
      wl.data = nn::make_synthetic_dataset(2 * 8 * 8, 4, 16, 9);
      break;
  }
  return wl;
}

parallel::TrainerOptions default_opts() {
  return parallel::TrainerOptions{.grid = parallel::GridShape{2, 2}};
}

/// Forward `input` through entry's layout on an in-process world; checks
/// every rank returned the identical replicated logits and returns them.
std::vector<float> forward_in_process(
    const parallel::TrainerEntry& entry, const Workload& wl,
    const tensor::Matrix& input,
    const parallel::CheckpointStore* store = nullptr) {
  comm::World world(kRanks);
  world.enable_validation();
  std::vector<std::vector<float>> outs(kRanks);
  std::mutex mu;
  world.run([&](comm::Comm& c) {
    InferenceSession session(
        c, entry.layout(c, default_opts(), wl.specs, kBuildBatch));
    if (store != nullptr) session.load(*store);
    const tensor::Matrix logits = session.forward(input);
    const std::lock_guard lock(mu);
    outs[static_cast<std::size_t>(c.rank())]
        .assign(logits.span().begin(), logits.span().end());
  });
  for (int r = 1; r < kRanks; ++r)
    EXPECT_EQ(outs[0], outs[static_cast<std::size_t>(r)])
        << entry.name << ": rank " << r << " logits diverged";
  return outs[0];
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol = 5e-4f) {
  ASSERT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  EXPECT_LE(worst, tol);
}

TEST(InferenceSession, RepeatedRunsAreBitwiseIdentical) {
  for (const parallel::TrainerEntry& e : parallel::trainer_registry()) {
    SCOPED_TRACE(std::string(e.name));
    const Workload wl = workload_for(e.workload);
    const tensor::Matrix input = wl.data.inputs.col_block(0, kBuildBatch);
    const auto first = forward_in_process(e, wl, input);
    const auto second = forward_in_process(e, wl, input);
    EXPECT_EQ(first, second);
  }
}

TEST(InferenceSession, BatchCompositionIsTransparent) {
  // A batch of 8 must equal eight single-sample batches column for column:
  // single-sample requests go through the zero-padding path (b=1 is below
  // most layouts' min_batch), so this is also the padding-purity check the
  // gateway's dynamic batcher relies on.
  for (const parallel::TrainerEntry& e : parallel::trainer_registry()) {
    SCOPED_TRACE(std::string(e.name));
    const Workload wl = workload_for(e.workload);
    const tensor::Matrix input = wl.data.inputs.col_block(0, kBuildBatch);
    const auto batched = forward_in_process(e, wl, input);
    const std::size_t d_out = batched.size() / kBuildBatch;
    for (const std::size_t s : {std::size_t{0}, std::size_t{3},
                                std::size_t{7}}) {
      const auto solo =
          forward_in_process(e, wl, input.col_block(s, s + 1));
      ASSERT_EQ(solo.size(), d_out);
      // The flat span is row-major: sample s is the strided column s.
      std::vector<float> batched_col(d_out);
      for (std::size_t k = 0; k < d_out; ++k)
        batched_col[k] = batched[k * kBuildBatch + s];
      EXPECT_EQ(solo, batched_col) << "sample " << s;
    }
  }
}

TEST(InferenceSession, MatchesSequentialForwardAtInitWeights) {
  // Without load() the layout holds the He-initialized weights of the
  // sequential reference (same seed, same stream) — its forward pass is
  // the ground truth for every partitioned layout.
  for (const parallel::TrainerEntry& e : parallel::trainer_registry()) {
    SCOPED_TRACE(std::string(e.name));
    const Workload wl = workload_for(e.workload);
    const tensor::Matrix input = wl.data.inputs.col_block(0, kBuildBatch);
    nn::Network ref = nn::build_network(wl.specs, {.seed = 42});
    const tensor::Matrix expect = ref.forward(input);
    const auto got = forward_in_process(e, wl, input);
    expect_close(got, {expect.span().begin(), expect.span().end()});
  }
}

/// Train `entry` briefly with CheckpointPolicy::final_commit into `store`;
/// returns rank 0's result.
parallel::DistResult train_and_publish(const parallel::TrainerEntry& entry,
                                       const Workload& wl,
                                       parallel::CheckpointStore& store) {
  nn::TrainConfig cfg;
  cfg.batch = kBuildBatch;
  cfg.iterations = 2;
  parallel::RecoveryContext rc{&store, {.every = 0, .final_commit = true}};
  parallel::TrainerOptions opts = default_opts();
  opts.recovery = &rc;

  parallel::DistResult result;
  std::mutex mu;
  comm::World world(kRanks);
  world.run([&](comm::Comm& c) {
    parallel::DistResult r = entry.run(c, opts, wl.specs, wl.data, cfg);
    if (c.rank() == 0) {
      const std::lock_guard lock(mu);
      result = std::move(r);
    }
  });
  EXPECT_EQ(store.step(), cfg.iterations);
  return result;
}

TEST(InferenceSession, ServesWeightsTrainedThroughFinalCommit) {
  // Train briefly with CheckpointPolicy::final_commit, load the published
  // checkpoint into a fresh session, and check the served logits against a
  // sequential network carrying the trained parameters.
  for (const parallel::TrainerEntry& e : parallel::trainer_registry()) {
    SCOPED_TRACE(std::string(e.name));
    const Workload wl = workload_for(e.workload);
    parallel::CheckpointStore store(kRanks);
    const parallel::DistResult result = train_and_publish(e, wl, store);
    ASSERT_TRUE(store.valid()) << "final_commit did not publish";

    const tensor::Matrix input = wl.data.inputs.col_block(0, kBuildBatch);
    const auto got = forward_in_process(e, wl, input, &store);

    nn::Network ref = nn::build_network(wl.specs, {.seed = 42});
    ref.load_params(result.params);
    const tensor::Matrix expect = ref.forward(input);
    expect_close(got, {expect.span().begin(), expect.span().end()});
  }
}

TEST(InferenceSession, LoadRefusesMisSizedCheckpointSlots) {
  // Every rank's published slot, one float short and one float long: load()
  // must throw mbd::Error on every rank, for every layout.
  for (const parallel::TrainerEntry& e : parallel::trainer_registry()) {
    SCOPED_TRACE(std::string(e.name));
    const Workload wl = workload_for(e.workload);
    parallel::CheckpointStore store(kRanks);
    train_and_publish(e, wl, store);
    ASSERT_TRUE(store.valid()) << "final_commit did not publish";

    for (const bool longer : {false, true}) {
      SCOPED_TRACE(longer ? "one float long" : "one float short");
      parallel::CheckpointStore bad(kRanks);
      for (int r = 0; r < kRanks; ++r) {
        std::vector<float> state = store.state(r);
        ASSERT_FALSE(state.empty()) << "rank " << r << " has no state";
        if (longer) {
          state.push_back(0.0f);
        } else {
          state.pop_back();
        }
        bad.stage_rank(r, std::move(state), store.losses(r));
      }
      bad.commit(store.step());

      std::vector<int> refused(kRanks, 0);
      comm::World world(kRanks);
      world.run([&](comm::Comm& c) {
        InferenceSession session(
            c, e.layout(c, default_opts(), wl.specs, kBuildBatch));
        try {
          session.load(bad);
        } catch (const mbd::Error&) {
          refused[static_cast<std::size_t>(c.rank())] = 1;
        }
      });
      for (int r = 0; r < kRanks; ++r)
        EXPECT_TRUE(refused[static_cast<std::size_t>(r)])
            << "rank " << r << " accepted a mis-sized slot";
    }
  }
}

// --- TCP transport parity ---------------------------------------------------

/// N loopback TcpTransports + one distributed World per rank, run
/// concurrently — the same harness tests/comm/test_transport_tcp.cpp uses.
struct TcpWorld {
  std::vector<std::shared_ptr<comm::TcpTransport>> transports;
  std::vector<std::unique_ptr<comm::World>> worlds;

  explicit TcpWorld(int n) {
    std::vector<comm::TcpEndpoint> eps;
    for (int r = 0; r < n; ++r) {
      transports.push_back(
          std::make_shared<comm::TcpTransport>(n, r, "127.0.0.1", 0));
      eps.push_back({"127.0.0.1", transports.back()->port()});
    }
    std::vector<std::thread> dialers;
    for (int r = 0; r < n; ++r) {
      dialers.emplace_back([&, r] {
        transports[static_cast<std::size_t>(r)]->connect_mesh(eps);
      });
    }
    for (auto& t : dialers) t.join();
    for (int r = 0; r < n; ++r) {
      worlds.push_back(std::make_unique<comm::World>(
          n, r, transports[static_cast<std::size_t>(r)]));
    }
  }

  ~TcpWorld() {
    std::vector<std::thread> closers;
    for (auto& t : transports) {
      closers.emplace_back([&t] { t->shutdown(); });
    }
    for (auto& t : closers) t.join();
  }

  void run_all(const std::function<void(comm::Comm&)>& fn) {
    std::vector<std::exception_ptr> errors(worlds.size());
    std::vector<std::thread> runners;
    for (std::size_t r = 0; r < worlds.size(); ++r) {
      runners.emplace_back([&, r] {
        try {
          worlds[r]->run(fn);
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
    for (auto& t : runners) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
};

TEST(InferenceSession, TcpTransportMatchesInProcessBitwise) {
  for (const parallel::TrainerEntry& e : parallel::trainer_registry()) {
    SCOPED_TRACE(std::string(e.name));
    const Workload wl = workload_for(e.workload);
    const tensor::Matrix input = wl.data.inputs.col_block(0, kBuildBatch);
    const auto in_process = forward_in_process(e, wl, input);

    TcpWorld tw(kRanks);
    std::vector<std::vector<float>> outs(kRanks);
    std::mutex mu;
    tw.run_all([&](comm::Comm& c) {
      InferenceSession session(
          c, e.layout(c, default_opts(), wl.specs, kBuildBatch));
      const tensor::Matrix logits = session.forward(input);
      const std::lock_guard lock(mu);
      outs[static_cast<std::size_t>(c.rank())]
          .assign(logits.span().begin(), logits.span().end());
    });
    for (int r = 0; r < kRanks; ++r)
      EXPECT_EQ(in_process, outs[static_cast<std::size_t>(r)])
          << "rank " << r << " diverged from the in-process fabric";
  }
}

}  // namespace
}  // namespace mbd::serve
