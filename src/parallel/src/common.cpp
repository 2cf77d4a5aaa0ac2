#include "mbd/parallel/common.hpp"

#include <cmath>

#include "mbd/support/check.hpp"

namespace mbd::parallel {

Range block_range(std::size_t n, int parts, int index) {
  MBD_CHECK_GT(parts, 0);
  MBD_CHECK(index >= 0 && index < parts);
  return {comm::Comm::block_lo(n, parts, index),
          comm::Comm::block_lo(n, parts, index + 1)};
}

BatchSlice batch_slice(const nn::Dataset& data, std::size_t start,
                       std::size_t count) {
  BatchSlice s;
  s.inputs = tensor::Matrix(data.inputs.rows(), count);
  s.labels.resize(count);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t src = (start + j) % data.size();
    for (std::size_t i = 0; i < s.inputs.rows(); ++i)
      s.inputs(i, j) = data.inputs(i, src);
    s.labels[j] = data.labels[src];
  }
  return s;
}

tensor::Matrix he_init_full(std::size_t d_out, std::size_t d_in, Rng& rng) {
  return tensor::Matrix::random_normal(
      d_out, d_in, rng, std::sqrt(2.0f / static_cast<float>(d_in)));
}

tensor::Matrix he_init_rows(std::size_t d_out, std::size_t d_in, Rng& rng,
                            Range rows) {
  MBD_CHECK_LE(rows.hi, d_out);
  // Draw the FULL matrix so the random stream stays aligned with the
  // replicated layout, then keep only the owned rows.
  tensor::Matrix full = he_init_full(d_out, d_in, rng);
  if (rows.lo == 0 && rows.hi == d_out) return full;
  return full.row_block(rows.lo, rows.hi);
}

double sum_scalar(comm::Comm& comm, double value) {
  auto all = comm.gather(std::span<const double>(&value, 1), /*root=*/0);
  double total = 0.0;
  if (comm.rank() == 0)
    for (double v : all) total += v;
  comm.broadcast(std::span<double>(&total, 1), /*root=*/0);
  return total;
}

}  // namespace mbd::parallel
