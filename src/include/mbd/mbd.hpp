// Umbrella header: the full public API of the mbd-parallel library.
//
// For finer-grained includes, pull individual headers from mbd/support,
// mbd/comm, mbd/tensor, mbd/nn, mbd/costmodel, and mbd/parallel.
#pragma once

// support: errors, RNG, tables, CLI, units
#include "mbd/support/check.hpp"
#include "mbd/support/cli.hpp"
#include "mbd/support/rng.hpp"
#include "mbd/support/table.hpp"
#include "mbd/support/units.hpp"

// comm: the message-passing runtime
#include "mbd/comm/comm.hpp"
#include "mbd/comm/nonblocking.hpp"
#include "mbd/comm/schedule_recorder.hpp"
#include "mbd/comm/stats.hpp"
#include "mbd/comm/world.hpp"

// tensor: matrices, gemm, NCHW tensors
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/im2col.hpp"
#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/ops.hpp"
#include "mbd/tensor/tensor4.hpp"

// nn: layers, networks, training
#include "mbd/nn/layer_spec.hpp"
#include "mbd/nn/layers.hpp"
#include "mbd/nn/loss.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/nn/serialize.hpp"
#include "mbd/nn/trainer.hpp"

// costmodel: the paper's analytic machinery
#include "mbd/costmodel/collective_costs.hpp"
#include "mbd/costmodel/hierarchy.hpp"
#include "mbd/costmodel/machine.hpp"
#include "mbd/costmodel/memory.hpp"
#include "mbd/costmodel/optimizer.hpp"
#include "mbd/costmodel/replay.hpp"
#include "mbd/costmodel/serving.hpp"
#include "mbd/costmodel/strategy.hpp"
#include "mbd/costmodel/summa.hpp"
#include "mbd/costmodel/volumes.hpp"

// analysis: the static schedule analyzer
#include "mbd/analysis/extract.hpp"
#include "mbd/analysis/report.hpp"
#include "mbd/analysis/schedule_checks.hpp"

// parallel: the distributed trainers
#include "mbd/parallel/batch_parallel.hpp"
#include "mbd/parallel/common.hpp"
#include "mbd/parallel/domain_parallel.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/parallel/hybrid.hpp"
#include "mbd/parallel/integrated.hpp"
#include "mbd/parallel/layer_engine.hpp"
#include "mbd/parallel/mixed_grid.hpp"
#include "mbd/parallel/model_parallel.hpp"
#include "mbd/parallel/summa.hpp"

// serve: forward-only execution and the request gateway
#include "mbd/serve/gateway.hpp"
#include "mbd/serve/inference.hpp"
