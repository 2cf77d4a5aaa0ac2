#include "timed_stage.hpp"

#include <algorithm>
#include <utility>

#include "common.hpp"

namespace perfbench {

using mbd::parallel::Flow;
using mbd::parallel::StepContext;

TimedStage::TimedStage(std::unique_ptr<mbd::parallel::EngineStage> inner,
                       StageClock& clock, std::size_t index, bool calls)
    : inner_(std::move(inner)), clock_(&clock), index_(index), calls_(calls) {
  if (clock_->fwd_ns.size() <= index_) {
    clock_->fwd_ns.resize(index_ + 1);
    clock_->bwd_ns.resize(index_ + 1);
    clock_->fwd_calls.resize(index_ + 1);
    clock_->bwd_calls.resize(index_ + 1);
  }
}

void TimedStage::charge(std::uint64_t t0, std::uint64_t& total) {
  const std::uint64_t dt = steady_ns() - t0;
  total += dt;
  if (!clock_->step_busy_ns.empty()) clock_->step_busy_ns.back() += dt;
}

void TimedStage::begin_iteration(const StepContext& ctx) {
  if (index_ == 0) {
    clock_->step_begin_ns.push_back(steady_ns());
    clock_->step_busy_ns.push_back(0);
  }
  inner_->begin_iteration(ctx);
}

Flow TimedStage::forward(Flow in, const StepContext& ctx) {
  if (!calls_) return inner_->forward(std::move(in), ctx);
  const std::uint64_t t0 = steady_ns();
  Flow out = inner_->forward(std::move(in), ctx);
  charge(t0, clock_->fwd_ns[index_]);
  ++clock_->fwd_calls[index_];
  return out;
}

Flow TimedStage::backward(Flow grad, const StepContext& ctx,
                          mbd::parallel::GradReducer& red) {
  if (!calls_) return inner_->backward(std::move(grad), ctx, red);
  const std::uint64_t t0 = steady_ns();
  Flow out = inner_->backward(std::move(grad), ctx, red);
  charge(t0, clock_->bwd_ns[index_]);
  ++clock_->bwd_calls[index_];
  return out;
}

void TimedStage::update(float lr, float momentum) {
  if (!calls_) {
    inner_->update(lr, momentum);
    return;
  }
  const std::uint64_t t0 = steady_ns();
  inner_->update(lr, momentum);
  charge(t0, clock_->update_ns);
}

void wrap_stages(mbd::parallel::EngineLayout& layout, StageClock& clock,
                 Timing timing) {
  std::size_t n = layout.stages.size();
  if (timing == Timing::Off) n = 0;
  if (timing == Timing::Steps) n = std::min<std::size_t>(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    layout.stages[i] = std::make_unique<TimedStage>(
        std::move(layout.stages[i]), clock, i, timing == Timing::Calls);
}

}  // namespace perfbench
