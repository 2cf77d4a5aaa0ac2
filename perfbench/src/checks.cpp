#include "checks.hpp"

#include <cmath>
#include <cstring>

namespace perfbench {

using mbd::comm::Coll;
using mbd::comm::StatsSnapshot;

std::size_t failed_steps(const std::vector<double>& losses,
                         const std::vector<double>& reference,
                         bool traffic_ok) {
  if (!traffic_ok) return losses.size();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    bool ok = std::isfinite(losses[i]);
    if (ok && i < reference.size())
      ok = std::abs(losses[i] - reference[i]) <=
           kLossTolerance * (1.0 + std::abs(reference[i]));
    if (!ok) ++failed;
  }
  return failed;
}

bool matches_closed_form(const StatsSnapshot& step,
                         const mbd::costmodel::RankVolume& closed) {
  return step[Coll::AllReduce].bytes == closed.allreduce_bytes &&
         step[Coll::AllGather].bytes == closed.allgather_bytes &&
         step[Coll::PointToPoint].bytes == closed.p2p_bytes;
}

StatsSnapshot episode_traffic(const StatsSnapshot& overhead,
                              const StatsSnapshot& step, std::size_t steps) {
  StatsSnapshot out;
  for (std::size_t c = 0; c < out.by_coll.size(); ++c) {
    out.by_coll[c].bytes =
        overhead.by_coll[c].bytes + steps * step.by_coll[c].bytes;
    out.by_coll[c].messages =
        overhead.by_coll[c].messages + steps * step.by_coll[c].messages;
  }
  return out;
}

bool same_traffic(const StatsSnapshot& a, const StatsSnapshot& b) {
  for (std::size_t c = 0; c < a.by_coll.size(); ++c)
    if (a.by_coll[c].bytes != b.by_coll[c].bytes ||
        a.by_coll[c].messages != b.by_coll[c].messages)
      return false;
  return true;
}

ReplyOutcome classify_reply(const mbd::serve::Reply& reply,
                            std::span<const float> want, double latency_s,
                            double limit_s) {
  if (!reply.accepted) return ReplyOutcome::Rejected;
  if (reply.logits.size() != want.size() ||
      std::memcmp(reply.logits.data(), want.data(),
                  want.size() * sizeof(float)) != 0)
    return ReplyOutcome::WrongLogits;
  if (latency_s > limit_s) return ReplyOutcome::Late;
  return ReplyOutcome::Ok;
}

}  // namespace perfbench
