// Output checks of the benchmark. They run outside the timed regions and
// turn every mismatch into failed operations; selftest.cpp plants wrong
// losses, logits and bytes to prove they do.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mbd/comm/stats.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/serve/gateway.hpp"

namespace perfbench {

/// Relative loss tolerance of the repository's parallel-vs-sequential
/// tests: |a − ref| ≤ tol·(1 + |ref|).
inline constexpr double kLossTolerance = 2e-4;

/// Leading steps of every training episode checked against the sequential
/// nn::train_sgd reference; timing as many warm sequential steps gives the
/// single-worker baseline.
inline constexpr std::size_t kReferenceSteps = 3;

/// Failed steps of one training episode: every step when the episode's
/// traffic is wrong, otherwise each step whose loss is not finite or, among
/// the first reference.size() steps, differs from the sequential reference.
std::size_t failed_steps(const std::vector<double>& losses,
                         const std::vector<double>& reference,
                         bool traffic_ok);

/// Whether one iteration's measured AllReduce, AllGather and point-to-point
/// bytes equal the closed form summed over ranks.
bool matches_closed_form(const mbd::comm::StatsSnapshot& step,
                         const mbd::costmodel::RankVolume& closed);

/// The traffic an episode of `steps` iterations must move: its fixed
/// set-up and tear-down traffic plus `steps` copies of one iteration.
mbd::comm::StatsSnapshot episode_traffic(
    const mbd::comm::StatsSnapshot& overhead,
    const mbd::comm::StatsSnapshot& step, std::size_t steps);

/// Every class's bytes and messages are equal.
bool same_traffic(const mbd::comm::StatsSnapshot& a,
                  const mbd::comm::StatsSnapshot& b);

/// How one request fared. Anything but Ok is a failed operation; a
/// rejected request also misses the latency limit.
enum class ReplyOutcome { Ok, Rejected, WrongLogits, Late };

/// Accepted replies must carry logits bitwise equal to `want` and arrive
/// within `limit_s` of the request's due time.
ReplyOutcome classify_reply(const mbd::serve::Reply& reply,
                            std::span<const float> want, double latency_s,
                            double limit_s);

}  // namespace perfbench
