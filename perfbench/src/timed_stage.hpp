// A benchmark-side EngineStage decorator that times the calls into each
// stage of a layout without changing what they compute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mbd/parallel/engine_layout.hpp"

namespace perfbench {

/// One rank's stage timings. Only that rank's thread writes it.
struct StageClock {
  /// Steady-clock ns at stage 0's begin_iteration: one entry per engine
  /// iteration (training) or forward pass (serving).
  std::vector<std::uint64_t> step_begin_ns;
  /// Per step: ns spent inside stage calls (forward, backward, update).
  /// This and the call totals below stay 0 under Timing::Steps.
  std::vector<std::uint64_t> step_busy_ns;
  /// Per stage index: total ns and calls of forward and backward.
  std::vector<std::uint64_t> fwd_ns, bwd_ns, fwd_calls, bwd_calls;
  std::uint64_t update_ns = 0;
};

/// How much of a layout wrap_stages decorates.
enum class Timing {
  Off,    ///< nothing
  Steps,  ///< stage 0 only, one clock read per step at begin_iteration
  Calls,  ///< every stage, plus every forward, backward and update call
};

/// Forwards every EngineStage virtual to the wrapped stage. Stage 0 records
/// each step's start; with `calls`, every call's duration is also added to
/// the rank's StageClock.
class TimedStage final : public mbd::parallel::EngineStage {
 public:
  TimedStage(std::unique_ptr<mbd::parallel::EngineStage> inner,
             StageClock& clock, std::size_t index, bool calls);

  const char* name() const override { return inner_->name(); }
  void begin_iteration(const mbd::parallel::StepContext& ctx) override;
  bool supports_microbatching() const override {
    return inner_->supports_microbatching();
  }
  mbd::parallel::Flow forward(mbd::parallel::Flow in,
                              const mbd::parallel::StepContext& ctx) override;
  mbd::parallel::Flow backward(mbd::parallel::Flow grad,
                               const mbd::parallel::StepContext& ctx,
                               mbd::parallel::GradReducer& red) override;
  void update(float lr, float momentum) override;
  void collect_params(std::vector<float>& out) override {
    inner_->collect_params(out);
  }
  void save_state(std::vector<float>& out) override {
    inner_->save_state(out);
  }
  void restore_state(std::span<const float>& in) override {
    inner_->restore_state(in);
  }

 private:
  void charge(std::uint64_t t0, std::uint64_t& total);

  std::unique_ptr<mbd::parallel::EngineStage> inner_;
  StageClock* clock_;
  std::size_t index_;
  bool calls_;
};

/// Replace the stages of `layout` that `timing` names by TimedStages
/// reporting into `clock`.
void wrap_stages(mbd::parallel::EngineLayout& layout, StageClock& clock,
                 Timing timing);

}  // namespace perfbench
