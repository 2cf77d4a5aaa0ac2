#include "mbd/parallel/layer_engine.hpp"

#include "mbd/nn/loss.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/ops.hpp"

namespace mbd::parallel {

using tensor::Matrix;
using tensor::Tensor4;

namespace {

// Consume a prefix of the checkpoint span into `dst` (EngineStage::
// restore_state); a span too short for it is an error, not an over-read.
void take_state(std::span<const float>& in, std::span<float> dst) {
  MBD_CHECK_LE(dst.size(), in.size());
  std::copy_n(in.begin(), dst.size(), dst.begin());
  in = in.subspan(dst.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// StepContext / GradReducer
// ---------------------------------------------------------------------------

void StepContext::annotate(double flops) const {
  if (seconds_per_flop > 0.0 && flops > 0.0)
    world->annotate_compute(flops * seconds_per_flop);
}

void GradReducer::allreduce(comm::Comm& group, std::span<float> grads) {
  if (mode_ == ReduceMode::Blocking) {
    group.allreduce(grads);
    return;
  }
  pending_.push_back(group.iallreduce(grads));
}

void GradReducer::drain() {
  for (auto& h : pending_) h.wait();
  pending_.clear();
}

// ---------------------------------------------------------------------------
// EngineStage: the parameter store
// ---------------------------------------------------------------------------

void EngineStage::add_param(std::span<float> w, std::span<float> dw) {
  MBD_CHECK_EQ(w.size(), dw.size());
  params_.push_back({w, dw, std::vector<float>(w.size(), 0.0f)});
}

void EngineStage::reduce_grads(GradReducer& red, comm::Comm& group) {
  for (const Param& p : params_) red.allreduce(group, p.dw);
}

void EngineStage::update(float lr, float momentum) {
  for (Param& p : params_) nn::sgd_update(p.w, p.dw, p.vel, lr, momentum);
}

void EngineStage::collect_params(std::vector<float>& out) {
  for (const Param& p : params_) out.insert(out.end(), p.w.begin(), p.w.end());
}

void EngineStage::save_state(std::vector<float>& out) {
  for (const Param& p : params_) {
    out.insert(out.end(), p.w.begin(), p.w.end());
    out.insert(out.end(), p.vel.begin(), p.vel.end());
  }
}

void EngineStage::restore_state(std::span<const float>& in) {
  for (Param& p : params_) {
    take_state(in, p.w);
    take_state(in, p.vel);
  }
}

// ---------------------------------------------------------------------------
// FcStage
// ---------------------------------------------------------------------------

FcStage::FcStage(const Config& cfg, Matrix w) : cfg_(cfg), w_(std::move(w)) {
  MBD_CHECK_EQ(w_.rows(), cfg_.rows.size());
  MBD_CHECK_EQ(w_.cols(), cfg_.d_in);
  dw_ = Matrix(w_.rows(), w_.cols());
  add_param(w_.span(), dw_.span());
  x_.resize(1);
  y_pre_.resize(1);
}

void FcStage::begin_iteration(const StepContext& ctx) {
  if (x_.size() != ctx.num_microbatches) {
    x_.resize(ctx.num_microbatches);
    y_pre_.resize(ctx.num_microbatches);
  }
  // With one microbatch the iteration's single Bwd tick overwrites dw_ (the
  // classic path, kept byte-for-byte); with several each tick adds its
  // partial into dw_, so the buffer starts the iteration zeroed.
  accumulate_dw_ = ctx.num_microbatches > 1;
  if (accumulate_dw_) {
    std::fill(dw_.span().begin(), dw_.span().end(), 0.0f);
    if (dw_scratch_.rows() != dw_.rows())
      dw_scratch_ = Matrix(dw_.rows(), dw_.cols());
  }
}

Flow FcStage::forward(Flow in, const StepContext& ctx) {
  Matrix& x = x_[ctx.microbatch];
  Matrix& y_pre = y_pre_[ctx.microbatch];
  x = std::move(in.as_matrix());
  MBD_CHECK_EQ(x.rows(), cfg_.d_in);
  const std::size_t b = x.cols();
  Matrix y_local = tensor::matmul(w_, x);  // rows.size() × b
  ctx.annotate(2.0 * static_cast<double>(w_.rows() * w_.cols() * b));
  if (cfg_.model_group) {
    // All-gather the row blocks into the full Y (Fig. 1 / Fig. 5 top): Bruck
    // for equal blocks, ring all-gatherv when Pr does not divide d_out.
    const auto pr = static_cast<std::size_t>(cfg_.model_group->size());
    auto gathered = cfg_.d_out % pr == 0
                        ? cfg_.model_group->allgather(y_local.span())
                        : cfg_.model_group->allgatherv(y_local.span());
    y_pre = Matrix::from_data(cfg_.d_out, b, std::move(gathered));
  } else {
    y_pre = std::move(y_local);
  }
  if (cfg_.relu_after) {
    Matrix y(cfg_.d_out, b);
    tensor::relu_forward(y_pre.span(), y.span());
    return Flow::from_matrix(std::move(y));
  }
  return Flow::from_matrix(y_pre);
}

Flow FcStage::backward(Flow grad, const StepContext& ctx, GradReducer& red) {
  const Matrix& x = x_[ctx.microbatch];
  const std::size_t b = x.cols();
  Matrix dy_pre;
  if (cfg_.relu_after) {
    dy_pre = Matrix(cfg_.d_out, b);
    tensor::relu_backward(y_pre_[ctx.microbatch].span(),
                          grad.as_matrix().span(), dy_pre.span());
  } else {
    dy_pre = std::move(grad.as_matrix());
  }
  Matrix dy_owned;
  const Matrix* dy_block = &dy_pre;
  if (cfg_.model_group) {
    dy_owned = dy_pre.row_block(cfg_.rows.lo, cfg_.rows.hi);
    dy_block = &dy_owned;
  }
  const double gemm_flops =
      2.0 * static_cast<double>(w_.rows() * w_.cols() * b);
  // ∆W of this microbatch: overwrite dw_ directly in the one-microbatch
  // program, accumulate through the scratch buffer otherwise. The cross-rank
  // ∆W reduction fires only on the stage's final Bwd tick, when the
  // accumulated gradient is complete.
  const auto dw_gemm = [&] {
    if (!accumulate_dw_) {
      tensor::gemm_nt(*dy_block, x, dw_);
    } else {
      tensor::gemm_nt(*dy_block, x, dw_scratch_);
      tensor::axpy(1.0f, dw_scratch_.span(), dw_.span());
    }
  };
  const bool reduce_dw = cfg_.batch_group && cfg_.batch_group->size() > 1 &&
                         ctx.last_backward;

  const bool reduce_dx =
      cfg_.compute_dx && cfg_.model_group && cfg_.model_group->size() > 1;
  if (ctx.mode == ReduceMode::Overlapped && reduce_dx) {
    // ∆X first: issue its ring all-reduce nonblocking and hide it behind the
    // ∆W GEMM; the nonblocking ∆W reduction then drains behind the layers
    // below. Same ring schedule as the blocking branch — bitwise-identical
    // results and identical traffic.
    Matrix dxl = tensor::matmul_tn(w_, *dy_block);
    ctx.annotate(gemm_flops);
    comm::CollectiveHandle dx_reduce =
        cfg_.model_group->iallreduce(dxl.span());
    dw_gemm();
    ctx.annotate(gemm_flops);
    if (reduce_dw) red.allreduce(*cfg_.batch_group, dw_.span());
    dx_reduce.wait();
    return Flow::from_matrix(std::move(dxl));
  }

  // Blocking schedule: ∆W (partial over local columns, reduced over the
  // batch group), then ∆X (partial over owned rows, reduced over the model
  // group).
  dw_gemm();
  ctx.annotate(gemm_flops);
  if (reduce_dw) red.allreduce(*cfg_.batch_group, dw_.span());
  if (!cfg_.compute_dx) return {};
  Matrix dxl = tensor::matmul_tn(w_, *dy_block);
  ctx.annotate(gemm_flops);
  if (reduce_dx) cfg_.model_group->allreduce(dxl.span());
  return Flow::from_matrix(std::move(dxl));
}

void FcStage::collect_params(std::vector<float>& out) {
  if (!cfg_.model_group) {
    EngineStage::collect_params(out);
    return;
  }
  const auto pr = static_cast<std::size_t>(cfg_.model_group->size());
  const auto full =
      cfg_.d_out % pr == 0 ? cfg_.model_group->allgather(w_.span())
                                   : cfg_.model_group->allgatherv(w_.span());
  out.insert(out.end(), full.begin(), full.end());
}

// ---------------------------------------------------------------------------
// NetworkStage
// ---------------------------------------------------------------------------

NetworkStage::NetworkStage(nn::Network net, comm::Comm* reduce_group,
                           double macs_per_sample)
    : net_(std::move(net)),
      reduce_group_(reduce_group),
      macs_per_sample_(macs_per_sample) {
  for (std::size_t li = 0; li < net_.num_layers(); ++li) {
    nn::Layer& l = net_.layer(li);
    if (!l.weights().empty()) add_param(l.weights(), l.grads());
  }
}

void NetworkStage::begin_iteration(const StepContext& ctx) {
  net_.set_batch_context(ctx.iteration, ctx.first_sample);
}

Flow NetworkStage::forward(Flow in, const StepContext& ctx) {
  const auto b = static_cast<double>(in.as_matrix().cols());
  Matrix y = net_.forward(in.as_matrix());
  // 2 flops per MAC forward; backward (below) costs ≈ 2× forward.
  ctx.annotate(2.0 * macs_per_sample_ * b);
  return Flow::from_matrix(std::move(y));
}

Flow NetworkStage::backward(Flow grad, const StepContext& ctx,
                            GradReducer& red) {
  const auto b = static_cast<double>(grad.as_matrix().cols());
  Matrix din = net_.backward(grad.as_matrix());
  ctx.annotate(4.0 * macs_per_sample_ * b);
  // The defining communication step: ring all-reduce of every ∆W.
  reduce_grads(red, *reduce_group_);
  return Flow::from_matrix(std::move(din));
}

// ---------------------------------------------------------------------------
// ConvStackStage
// ---------------------------------------------------------------------------

ConvStackStage::ConvStackStage(std::vector<std::unique_ptr<nn::Layer>> layers,
                               std::size_t d_out, comm::Comm* reduce_group,
                               double macs_per_sample)
    : layers_(std::move(layers)),
      d_out_(d_out),
      reduce_group_(reduce_group),
      macs_per_sample_(macs_per_sample) {
  for (auto& l : layers_)
    if (!l->weights().empty()) add_param(l->weights(), l->grads());
}

Flow ConvStackStage::forward(Flow in, const StepContext& ctx) {
  Matrix x = std::move(in.as_matrix());
  const auto b = static_cast<double>(x.cols());
  for (auto& l : layers_) x = l->forward(x);
  MBD_CHECK_EQ(x.rows(), d_out_);
  ctx.annotate(2.0 * macs_per_sample_ * b);
  return Flow::from_matrix(std::move(x));
}

Flow ConvStackStage::backward(Flow grad, const StepContext& ctx,
                              GradReducer& red) {
  Matrix dx = std::move(grad.as_matrix());
  const auto b = static_cast<double>(dx.cols());
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    dx = (*it)->backward(dx);
  ctx.annotate(4.0 * macs_per_sample_ * b);
  reduce_grads(red, *reduce_group_);
  return Flow::from_matrix(std::move(dx));
}

// ---------------------------------------------------------------------------
// DomainConvStage
// ---------------------------------------------------------------------------

DomainConvStage::DomainConvStage(detail::DomainConvState state,
                                 comm::Comm* conv_group,
                                 comm::Comm* reduce_group,
                                 double macs_per_sample)
    : st_(std::move(state)),
      conv_group_(conv_group),
      reduce_group_(reduce_group),
      macs_per_sample_(macs_per_sample) {
  add_param(st_.w.span(), st_.dw.span());
}

Flow DomainConvStage::forward(Flow in, const StepContext& ctx) {
  const auto b = static_cast<double>(in.as_tensor().n());
  Tensor4 y = detail::domain_conv_forward(*conv_group_, st_, in.as_tensor());
  ctx.annotate(2.0 * macs_per_sample_ * b);
  return Flow::from_tensor(std::move(y));
}

Flow DomainConvStage::backward(Flow grad, const StepContext& ctx,
                               GradReducer& red) {
  const auto b = static_cast<double>(grad.as_tensor().n());
  Tensor4 dslab = detail::domain_conv_backward(*conv_group_, st_,
                                               std::move(grad.as_tensor()));
  ctx.annotate(4.0 * macs_per_sample_ * b);
  // ∆W all-reduce over every process that shares the (replicated) weights,
  // interleaved per layer exactly like the halo exchanges.
  reduce_grads(red, *reduce_group_);
  return Flow::from_tensor(std::move(dslab));
}

// ---------------------------------------------------------------------------
// SlabScatterStage / SlabGatherStage
// ---------------------------------------------------------------------------

SlabScatterStage::SlabScatterStage(std::size_t in_c, std::size_t in_h,
                                   std::size_t in_w, Range rows)
    : in_c_(in_c), in_h_(in_h), in_w_(in_w), rows_(rows) {}

Flow SlabScatterStage::forward(Flow in, const StepContext& /*ctx*/) {
  const Matrix& x = in.as_matrix();
  MBD_CHECK_EQ(x.rows(), in_c_ * in_h_ * in_w_);
  Tensor4 slab(x.cols(), in_c_, rows_.size(), in_w_);
  tensor::columns_to_nchw(x, slab, rows_.lo);
  return Flow::from_tensor(std::move(slab));
}

Flow SlabScatterStage::backward(Flow /*grad*/, const StepContext& /*ctx*/,
                                GradReducer& /*red*/) {
  return {};  // the data layer needs no input gradient
}

SlabGatherStage::SlabGatherStage(comm::Comm* group, std::size_t out_c,
                                 std::size_t img_h, std::size_t img_w,
                                 Range rows)
    : group_(group), out_c_(out_c), img_h_(img_h), img_w_(img_w), rows_(rows) {}

Flow SlabGatherStage::forward(Flow in, const StepContext& /*ctx*/) {
  const Tensor4 full = detail::gather_slabs(*group_, in.as_tensor(), img_h_);
  Matrix x(out_c_ * img_h_ * img_w_, full.n());
  tensor::nchw_to_columns(full, x);
  return Flow::from_matrix(std::move(x));
}

Flow SlabGatherStage::backward(Flow grad, const StepContext& /*ctx*/,
                               GradReducer& /*red*/) {
  const Matrix& dy = grad.as_matrix();
  MBD_CHECK_EQ(dy.rows(), out_c_ * img_h_ * img_w_);
  Tensor4 dslab(dy.cols(), out_c_, rows_.size(), img_w_);
  tensor::columns_to_nchw(dy, dslab, rows_.lo);
  return Flow::from_tensor(std::move(dslab));
}

// ---------------------------------------------------------------------------
// RedistributeStage
// ---------------------------------------------------------------------------

RedistributeStage::RedistributeStage(comm::Comm* model_group, int world_size,
                                     int pr, int col, int conv_index,
                                     std::size_t d_out)
    : model_group_(model_group),
      world_size_(world_size),
      pr_(pr),
      col_(col),
      conv_index_(conv_index),
      d_out_(d_out) {}

Flow RedistributeStage::forward(Flow in, const StepContext& ctx) {
  Matrix& x = in.as_matrix();
  MBD_CHECK_EQ(x.rows(), d_out_);
  // Eq. 6: all-gather the conv-phase blocks within the model group, then
  // reassemble them in batch-column order (block j·Pr + i of the canonical
  // P-way partition tiles this group's B/Pc column range exactly). Ranges
  // come from ctx.batch, so the stage redistributes whatever batch the
  // executor feeds it.
  const Range group_cols = block_range(ctx.batch, world_size_ / pr_, col_);
  Matrix x_group(d_out_, group_cols.size());
  const auto gathered = model_group_->allgatherv(x.span());
  MBD_CHECK_EQ(gathered.size(), d_out_ * group_cols.size());
  std::size_t at = 0, col_at = 0;
  for (int m = 0; m < pr_; ++m) {
    const Range mc = block_range(ctx.batch, world_size_, col_ * pr_ + m);
    const Matrix block = Matrix::from_data(
        d_out_, mc.size(),
        {gathered.begin() + static_cast<std::ptrdiff_t>(at),
         gathered.begin() +
             static_cast<std::ptrdiff_t>(at + d_out_ * mc.size())});
    x_group.set_col_block(col_at, block);
    at += d_out_ * mc.size();
    col_at += mc.size();
  }
  return Flow::from_matrix(std::move(x_group));
}

Flow RedistributeStage::backward(Flow grad, const StepContext& ctx,
                                 GradReducer& /*red*/) {
  // Slice this rank's conv-phase columns back out of the group gradient.
  const Range group_cols = block_range(ctx.batch, world_size_ / pr_, col_);
  const Range conv_cols =
      block_range(ctx.batch, world_size_, col_ * pr_ + conv_index_);
  return Flow::from_matrix(grad.as_matrix().col_block(
      conv_cols.lo - group_cols.lo, conv_cols.hi - group_cols.lo));
}

// ---------------------------------------------------------------------------
// LayerEngine
// ---------------------------------------------------------------------------

LayerEngine::LayerEngine(comm::Comm& world, StepSchedule sched)
    : world_(&world), sched_(sched) {
  MBD_CHECK_LE(sched_.input_cols.lo, sched_.input_cols.hi);
  MBD_CHECK_GT(sched_.loss_replicas, 0);
}

void LayerEngine::add_stage(std::unique_ptr<EngineStage> stage) {
  stages_.push_back(std::move(stage));
}

void LayerEngine::save_checkpoint(const RecoveryContext& rc,
                                  std::size_t next_step,
                                  const std::vector<double>& losses) {
  // Barrier / stage / barrier / commit: the first barrier proves every rank
  // finished step next_step-1 (no rank can stage mid-step state), the
  // second proves every rank staged before rank 0 promotes the staged slots.
  // A crash anywhere in between leaves the previous committed checkpoint
  // untouched — commits are atomic under the store mutex.
  obs::ScopedSpan span(obs::SpanKind::Checkpoint, "save");
  span.set_args(next_step, 0);
  world_->barrier();
  std::vector<float> state;
  for (auto& s : stages_) s->save_state(state);
  rc.store->stage_rank(world_->rank(), std::move(state), losses);
  world_->barrier();
  if (world_->rank() == 0) rc.store->commit(next_step);
}

std::size_t LayerEngine::restore_checkpoint(const RecoveryContext& rc,
                                            std::vector<double>& losses) {
  const std::vector<float> state = rc.store->state(world_->rank());
  std::span<const float> in(state);
  for (auto& s : stages_) s->restore_state(in);
  MBD_CHECK_MSG(in.empty(), "checkpoint state has " << in.size()
                                                    << " unconsumed floats");
  losses = rc.store->losses(world_->rank());
  return rc.store->step();
}

ScheduleProgram LayerEngine::degenerate_program() const {
  // The classic loop as a program: every stage Fwd first-to-last, then Bwd
  // last-to-first, whole minibatch as microbatch 0 of 1. Loss finalizes at
  // the last Fwd tick — between the passes, exactly where the original
  // implicit loop evaluated it.
  ScheduleProgram prog;
  prog.num_microbatches = 1;
  prog.ticks.reserve(2 * stages_.size());
  for (std::size_t s = 0; s < stages_.size(); ++s)
    prog.ticks.push_back({ScheduleTick::Op::Fwd, s, 0});
  prog.loss_tick = prog.ticks.size() - 1;
  for (std::size_t s = stages_.size(); s-- > 0;)
    prog.ticks.push_back({ScheduleTick::Op::Bwd, s, 0});
  return prog;
}

void LayerEngine::validate_program(const ScheduleProgram& prog) const {
  const std::size_t m = prog.num_microbatches;
  MBD_CHECK_GT(m, 0u);
  MBD_CHECK_EQ(prog.ticks.size(), 2 * stages_.size() * m);
  MBD_CHECK_LT(prog.loss_tick, prog.ticks.size());
  if (m > 1) {
    for (const auto& s : stages_)
      MBD_CHECK_MSG(s->supports_microbatching(),
                    "stage '" << s->name()
                              << "' cannot run a multi-microbatch program");
  }
  // Exactly one Fwd and one Bwd tick per (stage, microbatch); a stage's Bwd
  // ticks in increasing microbatch order (the ∆W-completion rule).
  std::vector<std::size_t> fwd_seen(stages_.size() * m, 0);
  std::vector<std::size_t> bwd_seen(stages_.size() * m, 0);
  std::vector<std::size_t> bwd_next(stages_.size(), 0);
  for (const auto& t : prog.ticks) {
    MBD_CHECK_LT(t.stage, stages_.size());
    MBD_CHECK_LT(t.microbatch, m);
    const std::size_t key = t.stage * m + t.microbatch;
    if (t.op == ScheduleTick::Op::Fwd) {
      ++fwd_seen[key];
    } else {
      MBD_CHECK_EQ(t.microbatch, bwd_next[t.stage]);
      ++bwd_next[t.stage];
      ++bwd_seen[key];
    }
  }
  for (std::size_t key = 0; key < fwd_seen.size(); ++key) {
    MBD_CHECK_EQ(fwd_seen[key], 1u);
    MBD_CHECK_EQ(bwd_seen[key], 1u);
  }
}

DistResult LayerEngine::train(const nn::Dataset& data,
                              const nn::TrainConfig& cfg,
                              const RecoveryContext* recovery) {
  MBD_CHECK(!stages_.empty());
  const ScheduleProgram prog = sched_.program.ticks.empty()
                                   ? degenerate_program()
                                   : sched_.program;
  validate_program(prog);
  const std::size_t num_mb = prog.num_microbatches;
  const std::size_t last_stage = stages_.size() - 1;
  const bool labels_match =
      sched_.label_cols.lo == sched_.input_cols.lo &&
      sched_.label_cols.hi == sched_.input_cols.hi;

  DistResult result;
  result.losses.reserve(cfg.iterations);
  std::size_t first_it = 0;
  if (recovery != nullptr && recovery->store != nullptr) {
    // The resume decision is collective, not a local store read. After a
    // failure each rank re-enters train() on its own clock, and rank 0 —
    // the sole committer — may promote the in-flight checkpoint *after* a
    // fast survivor (or the crasher itself) has already re-read the store
    // as empty; the ranks would then disagree on first_it and their
    // schedules deadlock. Rank 0's view is authoritative: its commit
    // necessarily happened before its own restart, so it broadcasts the
    // resume step and every rank restores — or replays from scratch — by
    // that one answer.
    double resume = 0.0;
    if (world_->rank() == 0 && recovery->store->valid())
      resume = static_cast<double>(recovery->store->step());
    world_->broadcast(std::span<double>(&resume, 1), /*root=*/0);
    if (resume > 0.0) {
      first_it = restore_checkpoint(*recovery, result.losses);
      MBD_CHECK_EQ(first_it, static_cast<std::size_t>(resume));
      MBD_CHECK_LE(first_it, cfg.iterations);
    }
  }
  for (std::size_t it = first_it; it < cfg.iterations; ++it) {
    const std::size_t start = (it * cfg.batch) % data.size();
    StepContext ctx;
    ctx.iteration = it;
    ctx.batch = cfg.batch;
    ctx.first_sample = start + sched_.input_cols.lo;
    ctx.world = world_;
    ctx.mode = sched_.mode;
    ctx.seconds_per_flop = sched_.seconds_per_flop;

    BatchSlice in = batch_slice(data, start + sched_.input_cols.lo,
                                sched_.input_cols.size());
    const std::vector<int> labels =
        labels_match ? std::move(in.labels)
                     : batch_slice(data, start + sched_.label_cols.lo,
                                   sched_.label_cols.size())
                           .labels;

    ctx.num_microbatches = num_mb;
    for (auto& s : stages_) s->begin_iteration(ctx);

    // Microbatch m's forward chain starts on its column block of this
    // rank's input slice; the one-microbatch program feeds the whole slice
    // unsliced (the classic path, no extra copy).
    std::vector<Flow> fwd(num_mb);
    std::vector<Flow> bwd(num_mb);
    if (num_mb == 1) {
      fwd[0] = Flow::from_matrix(std::move(in.inputs));
    } else {
      for (std::size_t m = 0; m < num_mb; ++m) {
        const Range mb = block_range(sched_.input_cols.size(),
                                     static_cast<int>(num_mb),
                                     static_cast<int>(m));
        fwd[m] = Flow::from_matrix(in.inputs.col_block(mb.lo, mb.hi));
      }
    }

    GradReducer red(sched_.mode);
    double loss_sum = 0.0;
    for (std::size_t ti = 0; ti < prog.ticks.size(); ++ti) {
      const ScheduleTick& tick = prog.ticks[ti];
      const std::size_t m = tick.microbatch;
      ctx.microbatch = m;
      ctx.last_backward = m == num_mb - 1;
      EngineStage& stage = *stages_[tick.stage];
      if (tick.op == ScheduleTick::Op::Fwd) {
        {
          obs::ScopedSpan span(obs::SpanKind::StageFwd, stage.name());
          span.set_args(it, m);
          fwd[m] = stage.forward(std::move(fwd[m]), ctx);
        }
        if (tick.stage == last_stage && sched_.compute_loss) {
          // Loss over this microbatch's columns; the gradient is already
          // scaled by 1/B (global), so the accumulated ∆W reductions
          // recover the full mini-batch gradient.
          const std::vector<int> mb_labels =
              num_mb == 1 ? std::vector<int>()
                          : [&] {
                              const Range r = block_range(
                                  sched_.label_cols.size(),
                                  static_cast<int>(num_mb),
                                  static_cast<int>(m));
                              return std::vector<int>(
                                  labels.begin() +
                                      static_cast<std::ptrdiff_t>(r.lo),
                                  labels.begin() +
                                      static_cast<std::ptrdiff_t>(r.hi));
                            }();
          const nn::LossResult lr = nn::softmax_cross_entropy(
              fwd[m].as_matrix(), num_mb == 1 ? labels : mb_labels,
              cfg.batch);
          loss_sum += lr.loss_sum;
          bwd[m] = Flow::from_matrix(lr.dlogits);
        }
      } else {
        obs::ScopedSpan span(obs::SpanKind::StageBwd, stage.name());
        span.set_args(it, m);
        bwd[m] = stage.backward(std::move(bwd[m]), ctx, red);
      }
      if (ti == prog.loss_tick) {
        double loss = loss_sum;
        if (sched_.sum_loss) loss = sum_scalar(*world_, loss);
        result.losses.push_back(loss / sched_.loss_replicas /
                                static_cast<double>(cfg.batch));
      }
    }
    // No polling between stages: each handle's receives run inside drain(),
    // in initiation order, so the recorded trace is a deterministic program
    // order. The overlap is still real — every peer's sends were posted at
    // initiation, so by drain time the rounds are already in the mailbox.
    red.drain();

    const float rate = nn::lr_at(cfg, it);
    for (auto& s : stages_) s->update(rate, cfg.momentum);

    // Checkpoint after every policy.every completed steps; never after the
    // final step (training is done — there is nothing left to recover).
    if (recovery != nullptr && recovery->store != nullptr &&
        recovery->policy.every > 0 && (it + 1) % recovery->policy.every == 0 &&
        it + 1 < cfg.iterations) {
      save_checkpoint(*recovery, it + 1, result.losses);
    }

    // Close this iteration's window in the schedule recording (no-op unless
    // the World is recording): the static analyzer slices per-iteration
    // traffic and handle lifetimes at these markers.
    world_->mark_engine_step(it);
  }

  // Publish the trained state when asked: one extra commit tagged with the
  // total step count, after the loop (the in-loop cadence deliberately skips
  // the final step). A run resumed *at* cfg.iterations skips the loop above
  // and republishes the same state — idempotent.
  if (recovery != nullptr && recovery->store != nullptr &&
      recovery->policy.final_commit) {
    save_checkpoint(*recovery, cfg.iterations, result.losses);
  }

  for (auto& s : stages_) s->collect_params(result.params);
  return result;
}

}  // namespace mbd::parallel
