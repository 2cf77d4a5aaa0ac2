#include "mbd/costmodel/replay.hpp"

#include <deque>
#include <map>
#include <tuple>

#include "mbd/support/check.hpp"

namespace mbd::costmodel {

using comm::ScheduleEvent;
using comm::ScheduleEventKind;

ReplayResult replay_trace(const comm::ScheduleRecording& trace,
                          const MachineModel& m, ReplayOptions opts) {
  const std::size_t p = trace.ranks.size();
  ReplayResult r;
  r.rank_finish.assign(p, 0.0);
  if (p == 0) return r;

  // Availability times of sent-but-unreceived messages, per channel
  // (context, src, dst, tag) in send order, filled in as Sends are replayed.
  using Channel = std::tuple<std::uint64_t, int, int, int>;
  std::map<Channel, std::deque<double>> available;
  std::vector<std::size_t> cursor(p, 0);  // next event per rank

  // Topological sweep: keep advancing any rank whose next event is ready.
  // A Send/Compute is always ready; a Recv is ready once its channel holds
  // a replayed Send. Schedules from completed runs always make progress.
  bool progressed = true;
  std::size_t remaining = trace.total_events();
  while (remaining > 0) {
    MBD_CHECK_MSG(progressed,
                  "inconsistent trace: a Recv references a Send that never "
                  "occurs");
    progressed = false;
    for (std::size_t rank = 0; rank < p; ++rank) {
      const auto& events = trace.ranks[rank].events;
      const int me = static_cast<int>(rank);
      while (cursor[rank] < events.size()) {
        const ScheduleEvent& e = events[cursor[rank]];
        double& clock = r.rank_finish[rank];
        if (e.kind == ScheduleEventKind::Compute) {
          clock += e.seconds;
          r.total_compute += e.seconds;
          ++r.events;
        } else if (e.kind == ScheduleEventKind::Send) {
          const double wire = m.beta * static_cast<double>(e.bytes);
          const double busy = opts.inflight_transfer ? m.alpha : m.alpha + wire;
          clock += busy;
          r.total_send_busy += busy;
          // In-flight: the payload is still on the wire after the sender's
          // injection overhead; the receiver can only match it once it lands.
          available[{e.context, me, e.peer, e.tag}].push_back(
              opts.inflight_transfer ? clock + wire : clock);
          ++r.events;
        } else if (e.kind == ScheduleEventKind::Recv) {
          auto it = available.find({e.context, e.peer, me, e.tag});
          if (it == available.end() || it->second.empty()) {
            break;  // sender not replayed yet
          }
          const double ready = it->second.front();
          if (ready > clock) {
            r.total_recv_wait += ready - clock;
            clock = ready;
          }
          clock += m.alpha;  // matching/unpack overhead
          it->second.pop_front();
          ++r.events;
        }
        ++cursor[rank];
        --remaining;
        progressed = true;
      }
    }
  }
  for (double t : r.rank_finish) r.makespan = std::max(r.makespan, t);
  return r;
}

}  // namespace mbd::costmodel
