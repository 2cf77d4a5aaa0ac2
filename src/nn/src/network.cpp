#include "mbd/nn/network.hpp"

#include <algorithm>

#include "mbd/support/check.hpp"

namespace mbd::nn {

void Network::add(std::unique_ptr<Layer> layer) {
  MBD_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
}

tensor::Matrix Network::forward(const tensor::Matrix& x) {
  tensor::Matrix cur = x;
  for (auto& l : layers_) cur = l->forward(cur);
  return cur;
}

tensor::Matrix Network::backward(const tensor::Matrix& dy) {
  tensor::Matrix cur = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

void sgd_update(std::span<float> w, std::span<const float> g,
                std::span<float> v, float lr, float momentum) {
  MBD_CHECK_EQ(w.size(), g.size());
  if (momentum == 0.0f) {
    for (std::size_t i = 0; i < w.size(); ++i) w[i] -= lr * g[i];
    return;
  }
  MBD_CHECK_EQ(w.size(), v.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    v[i] = momentum * v[i] + g[i];
    w[i] -= lr * v[i];
  }
}

void Network::sgd_step(float lr, float momentum) {
  velocity_.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto w = layers_[li]->weights();
    velocity_[li].resize(w.size());  // zeros until the first step
    sgd_update(w, layers_[li]->grads(), velocity_[li], lr, momentum);
  }
}

void Network::set_batch_context(std::uint64_t iteration,
                                std::uint64_t sample_offset) {
  for (auto& l : layers_) l->set_batch_context(iteration, sample_offset);
}

std::size_t Network::num_params() const {
  std::size_t n = 0;
  for (const auto& l : layers_)
    n += const_cast<Layer&>(*l).weights().size();
  return n;
}

std::vector<float> Network::save_params() const {
  std::vector<float> flat;
  flat.reserve(num_params());
  for (const auto& l : layers_) {
    auto w = const_cast<Layer&>(*l).weights();
    flat.insert(flat.end(), w.begin(), w.end());
  }
  return flat;
}

void Network::load_params(std::span<const float> flat) {
  std::size_t at = 0;
  for (auto& l : layers_) {
    auto w = l->weights();
    MBD_CHECK_LE(at + w.size(), flat.size());
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(at), w.size(),
                w.begin());
    at += w.size();
  }
  MBD_CHECK_EQ(at, flat.size());
}

Network build_network(const std::vector<LayerSpec>& specs,
                      const BuildOptions& opts) {
  check_chain(specs);
  Network net;
  Rng rng(opts.seed);
  std::size_t fc_index = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const LayerSpec& s = specs[i];
    switch (s.kind) {
      case LayerKind::Conv:
        net.add(std::make_unique<Conv2D>(s.name, s.conv, rng));
        break;
      case LayerKind::FullyConnected:
        net.add(std::make_unique<FullyConnected>(s.name, s.fc_in, s.fc_out, rng));
        ++fc_index;
        break;
      case LayerKind::Pool:
        net.add(std::make_unique<MaxPool2D>(s.name, s.conv));
        break;
    }
    if (s.relu_after)
      net.add(std::make_unique<ReLU>(s.name + "_relu"));
    // Dropout after hidden FC layers (AlexNet applies it to fc6/fc7).
    const bool hidden_fc =
        s.kind == LayerKind::FullyConnected && i + 1 < specs.size();
    if (opts.dropout_prob > 0.0 && hidden_fc) {
      net.add(std::make_unique<Dropout>(s.name + "_drop", opts.dropout_prob,
                                        opts.dropout_seed + fc_index));
    }
  }
  return net;
}

}  // namespace mbd::nn
