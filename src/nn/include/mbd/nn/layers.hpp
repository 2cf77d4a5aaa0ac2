// Runtime layers operating on the paper's matrix layout: activations are
// d × B matrices with one column per sample (X_i ∈ R^{d_{i-1}×B}).
//
// Every weighted layer realizes exactly the three multiplies the paper
// analyzes:  Y = W·X  (forward),  ∆X = Wᵀ·∆Y,  ∆W = ∆Y·Xᵀ  (backward).
// Biases are intentionally omitted — the paper's formulation and all its
// communication analysis are bias-free.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mbd/nn/layer_spec.hpp"
#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/tensor4.hpp"

namespace mbd::nn {

/// Abstract layer. forward() must be called before backward(); layers cache
/// whatever forward state their backward needs.
class Layer {
 public:
  virtual ~Layer() = default;

  /// x is d_in × B; returns d_out × B.
  virtual tensor::Matrix forward(const tensor::Matrix& x) = 0;

  /// dy is d_out × B (gradient w.r.t. this layer's output); returns the
  /// gradient w.r.t. the input, d_in × B. Overwrites the weight gradient.
  virtual tensor::Matrix backward(const tensor::Matrix& dy) = 0;

  /// Flat views of parameters and their gradients (empty if none).
  virtual std::span<float> weights() { return {}; }
  virtual std::span<float> grads() { return {}; }

  /// Hook for layers whose behaviour depends on the training step and on
  /// which global samples this process holds (Dropout). `sample_offset` is
  /// the global index of local column 0.
  virtual void set_batch_context(std::uint64_t /*iteration*/,
                                 std::uint64_t /*sample_offset*/) {}

  virtual std::string_view name() const = 0;
};

/// Fully-connected layer, W ∈ R^{d_out × d_in}.
class FullyConnected final : public Layer {
 public:
  /// He-style init: W_ij ~ N(0, 2/d_in) drawn from `rng`.
  FullyConnected(std::string name, std::size_t d_in, std::size_t d_out,
                 Rng& rng);
  /// Wrap an explicit weight matrix (used by partitioned trainers).
  FullyConnected(std::string name, tensor::Matrix w);

  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& dy) override;
  std::span<float> weights() override { return w_.span(); }
  std::span<float> grads() override { return dw_.span(); }
  std::string_view name() const override { return name_; }

  const tensor::Matrix& weight_matrix() const { return w_; }
  const tensor::Matrix& grad_matrix() const { return dw_; }

 private:
  std::string name_;
  tensor::Matrix w_, dw_, x_;
};

/// Convolution layer via im2col + gemm; weights stored as
/// out_c × (in_c·kh·kw), activations flattened CHW per column. Each call
/// converts its batch to NCHW once and runs one GEMM per sample on buffers
/// the layer keeps across steps.
class Conv2D final : public Layer {
 public:
  Conv2D(std::string name, const tensor::ConvGeom& geom, Rng& rng);
  Conv2D(std::string name, const tensor::ConvGeom& geom, tensor::Matrix w);

  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& dy) override;
  std::span<float> weights() override { return w_.span(); }
  std::span<float> grads() override { return dw_.span(); }
  std::string_view name() const override { return name_; }

  const tensor::ConvGeom& geom() const { return geom_; }
  const tensor::Matrix& weight_matrix() const { return w_; }

 private:
  std::string name_;
  tensor::ConvGeom geom_;
  tensor::Matrix w_, dw_;
  tensor::Tensor4 x_;    ///< NCHW input cached for backward
  tensor::Tensor4 out_;  ///< NCHW scratch: Y in forward, ∆Y in backward
  tensor::Tensor4 dx_;   ///< NCHW ∆X scratch col2im accumulates into
  tensor::Matrix cols_;  ///< one sample's columns (∆columns in backward)
};

/// Elementwise ReLU.
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name) : name_(std::move(name)) {}
  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& dy) override;
  std::string_view name() const override { return name_; }

 private:
  std::string name_;
  tensor::Matrix x_;
};

/// Max pooling on flattened CHW columns.
class MaxPool2D final : public Layer {
 public:
  MaxPool2D(std::string name, const tensor::ConvGeom& geom);
  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& dy) override;
  std::string_view name() const override { return name_; }

 private:
  std::string name_;
  tensor::ConvGeom geom_;
  std::size_t d_in_ = 0;
  // argmax_(i, j): input index that won for output element i of sample j.
  std::vector<std::uint32_t> argmax_;
  std::size_t out_dim_ = 0, batch_ = 0;
};

/// Inverted dropout with a *stateless* mask: keep(u, s) is a pure hash of
/// (seed, iteration, global sample index s, unit u). This makes the mask
/// independent of how the batch is partitioned across processes, so the
/// parallel-equals-sequential tests hold even with dropout enabled.
class Dropout final : public Layer {
 public:
  Dropout(std::string name, double drop_prob, std::uint64_t seed);

  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& dy) override;
  void set_batch_context(std::uint64_t iteration,
                         std::uint64_t sample_offset) override;
  std::string_view name() const override { return name_; }

  /// True iff unit `u` of global sample `s` is kept at `iteration`.
  bool kept(std::uint64_t iteration, std::uint64_t sample, std::uint64_t unit)
      const;

 private:
  std::string name_;
  double drop_prob_;
  std::uint64_t seed_;
  std::uint64_t iteration_ = 0, sample_offset_ = 0;
  tensor::Matrix mask_;  // cached from forward for backward
};

}  // namespace mbd::nn
