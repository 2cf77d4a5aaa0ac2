// Network: an ordered stack of layers with SGD parameter updates, plus the
// builder that instantiates a runtime network from a LayerSpec chain.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "mbd/nn/layers.hpp"
#include "mbd/nn/layer_spec.hpp"

namespace mbd::nn {

/// Sequential network. Owns its layers.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  void add(std::unique_ptr<Layer> layer);

  /// Forward pass through all layers; x is d_0 × B.
  tensor::Matrix forward(const tensor::Matrix& x);

  /// Backward pass; dy is the gradient at the output. Each layer's weight
  /// gradient is overwritten. Returns the gradient at the input.
  tensor::Matrix backward(const tensor::Matrix& dy);

  /// sgd_update on every layer's parameters, with per-layer velocity
  /// buffers.
  void sgd_step(float lr, float momentum = 0.0f);

  /// Propagate (iteration, global sample offset) to layers that need it.
  void set_batch_context(std::uint64_t iteration, std::uint64_t sample_offset);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Total parameter count.
  std::size_t num_params() const;

  /// Copy all parameters into / out of one flat vector (layer order).
  std::vector<float> save_params() const;
  void load_params(std::span<const float> flat);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<std::vector<float>> velocity_;  // sized by the first sgd_step
};

/// One (momentum-)SGD step on a parameter shard, the single momentum rule
/// every trainer applies: with momentum m ≠ 0, v ← m·v + g and
/// w ← w − lr·v; plain w ← w − lr·g otherwise (v untouched). Velocity is
/// purely local state, so a partitioned shard updates exactly like the
/// same rows of the sequential reference.
void sgd_update(std::span<float> w, std::span<const float> g,
                std::span<float> v, float lr, float momentum);

/// Options for build_network.
struct BuildOptions {
  std::uint64_t seed = 42;       ///< weight init stream
  double dropout_prob = 0.0;     ///< if > 0, Dropout after each hidden FC
  std::uint64_t dropout_seed = 7;
};

/// Instantiate runtime layers for a spec chain: Conv2D/FullyConnected with
/// He init, ReLU where relu_after, MaxPool2D for pool specs, optional
/// Dropout after hidden FC layers.
Network build_network(const std::vector<LayerSpec>& specs,
                      const BuildOptions& opts = {});

}  // namespace mbd::nn
