#include "mbd/analysis/schedule_checks.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <tuple>

#include "mbd/support/check.hpp"

namespace mbd::analysis {

using comm::ScheduleEvent;
using comm::ScheduleEventKind;
using comm::ScheduleRecording;

std::string_view violation_kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::CollectiveMismatch: return "collective_mismatch";
    case ViolationKind::Deadlock: return "deadlock";
    case ViolationKind::UnconsumedMessage: return "unconsumed_message";
    case ViolationKind::HandleLeak: return "handle_leak";
    case ViolationKind::TrafficMismatch: return "traffic_mismatch";
  }
  return "?";
}

std::string Violation::describe() const {
  std::ostringstream os;
  os << violation_kind_name(kind) << " at rank " << rank << " op " << op_index
     << ": " << detail;
  return os.str();
}

// ---------------------------------------------------------------------------
// Check 1: cross-rank collective matching
// ---------------------------------------------------------------------------

std::vector<Violation> check_collective_matching(const ScheduleRecording& rec) {
  std::vector<Violation> out;
  // Per context: the ordered CollEnter positions of every participating rank.
  struct RankSeq {
    int rank = -1;
    std::vector<std::size_t> ops;  // event indices into that rank's log
  };
  std::map<std::uint64_t, std::vector<RankSeq>> contexts;
  for (int r = 0; r < rec.size(); ++r) {
    const auto& events = rec.ranks[static_cast<std::size_t>(r)].events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind != ScheduleEventKind::CollEnter) continue;
      auto& seqs = contexts[events[i].context];
      if (seqs.empty() || seqs.back().rank != r) seqs.push_back({r, {}});
      seqs.back().ops.push_back(i);
    }
  }
  for (const auto& [context, seqs] : contexts) {
    const RankSeq& ref = seqs.front();
    const auto& ref_events = rec.ranks[static_cast<std::size_t>(ref.rank)].events;
    // The first entry declares the communicator size; every rank of the
    // context must appear (a missing rank would hang the real collective).
    const int comm_size = ref_events[ref.ops.front()].comm_size;
    if (static_cast<int>(seqs.size()) != comm_size) {
      std::ostringstream os;
      os << "context " << context << ": " << seqs.size()
         << " rank(s) recorded collectives but the communicator has "
         << comm_size << " (first entry: "
         << ref_events[ref.ops.front()].desc.describe() << ')';
      out.push_back({ViolationKind::CollectiveMismatch, ref.rank,
                     ref.ops.front(), os.str()});
      continue;
    }
    for (std::size_t s = 1; s < seqs.size(); ++s) {
      const RankSeq& cur = seqs[s];
      const auto& cur_events =
          rec.ranks[static_cast<std::size_t>(cur.rank)].events;
      const std::size_t common = std::min(ref.ops.size(), cur.ops.size());
      bool mismatched = false;
      for (std::size_t i = 0; i < common; ++i) {
        const ScheduleEvent& a = ref_events[ref.ops[i]];
        const ScheduleEvent& b = cur_events[cur.ops[i]];
        if (a.desc.matches(b.desc) && a.comm_size == b.comm_size) continue;
        std::ostringstream os;
        os << "context " << context << " collective #" << i << ": rank "
           << cur.rank << " entered " << b.desc.describe() << " but rank "
           << ref.rank << " entered " << a.desc.describe();
        out.push_back(
            {ViolationKind::CollectiveMismatch, cur.rank, cur.ops[i], os.str()});
        mismatched = true;
        break;  // later entries of this rank are likely cascade noise
      }
      if (!mismatched && ref.ops.size() != cur.ops.size()) {
        const bool cur_short = cur.ops.size() < ref.ops.size();
        const RankSeq& longer = cur_short ? ref : cur;
        const auto& levents =
            rec.ranks[static_cast<std::size_t>(longer.rank)].events;
        std::ostringstream os;
        os << "context " << context << ": rank " << cur.rank << " entered "
           << cur.ops.size() << " collective(s) but rank " << ref.rank
           << " entered " << ref.ops.size() << " (first unmatched: "
           << levents[longer.ops[common]].desc.describe() << ')';
        out.push_back({ViolationKind::CollectiveMismatch,
                       cur_short ? cur.rank : ref.rank,
                       cur.ops.empty() ? 0 : cur.ops.back(), os.str()});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 2: deadlock-freedom under buffered-send semantics
// ---------------------------------------------------------------------------

namespace {

// A message-matching slot: the fabric matches on (context, source, tag) at
// the destination mailbox.
using MsgKey = std::tuple<std::uint64_t, int, int, int>;  // ctx, src, dst, tag

struct MsgFlow {
  std::vector<std::pair<int, std::size_t>> sends;  // (rank, op index)
  std::size_t consumed = 0;
};

}  // namespace

std::vector<Violation> check_deadlock_free(const ScheduleRecording& rec) {
  std::vector<Violation> out;
  const int p = rec.size();
  std::map<MsgKey, MsgFlow> flows;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);

  // Greedy replay: buffered sends always execute; a receive executes once
  // the matching send has. Greedy scheduling is complete for this semantics
  // — executing an enabled op never disables another — so "no rank can
  // advance" proves a real deadlock, not a scheduling artifact.
  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < p; ++r) {
      const auto& events = rec.ranks[static_cast<std::size_t>(r)].events;
      auto& at = cursor[static_cast<std::size_t>(r)];
      while (at < events.size()) {
        const ScheduleEvent& ev = events[at];
        if (ev.kind == ScheduleEventKind::Send) {
          flows[{ev.context, r, ev.peer, ev.tag}].sends.push_back({r, at});
        } else if (ev.kind == ScheduleEventKind::Recv) {
          auto it = flows.find({ev.context, ev.peer, r, ev.tag});
          if (it == flows.end() || it->second.consumed >= it->second.sends.size())
            break;  // blocked: matching send not executed yet
          ++it->second.consumed;
        }
        ++at;
        progress = true;
      }
    }
  }

  for (int r = 0; r < p; ++r) {
    const auto& events = rec.ranks[static_cast<std::size_t>(r)].events;
    const std::size_t at = cursor[static_cast<std::size_t>(r)];
    if (at >= events.size()) continue;
    std::ostringstream os;
    os << "replay stalled at " << events[at].describe()
       << ": the matching send is never executed (sender blocked or absent)";
    out.push_back({ViolationKind::Deadlock, r, at, os.str()});
  }
  if (!out.empty()) return out;  // unconsumed counts are meaningless mid-stall

  for (const auto& [key, flow] : flows) {
    for (std::size_t i = flow.consumed; i < flow.sends.size(); ++i) {
      const auto [rank, idx] = flow.sends[i];
      std::ostringstream os;
      os << rec.ranks[static_cast<std::size_t>(rank)].events[idx].describe()
         << " is never received by rank " << std::get<2>(key);
      out.push_back({ViolationKind::UnconsumedMessage, rank, idx, os.str()});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 3: nonblocking handle lifetimes
// ---------------------------------------------------------------------------

std::vector<Violation> check_handle_lifetimes(const ScheduleRecording& rec) {
  std::vector<Violation> out;
  for (int r = 0; r < rec.size(); ++r) {
    const auto& events = rec.ranks[static_cast<std::size_t>(r)].events;
    // token -> (post op index, label)
    std::map<std::uint64_t, std::pair<std::size_t, std::string>> open;
    auto flush = [&](const char* boundary) {
      for (const auto& [token, post] : open) {
        std::ostringstream os;
        os << "nonblocking op posted at op " << post.first << " (" << post.second
           << ", token " << token << ") still open at " << boundary;
        out.push_back({ViolationKind::HandleLeak, r, post.first, os.str()});
      }
      open.clear();
    };
    for (std::size_t i = 0; i < events.size(); ++i) {
      const ScheduleEvent& ev = events[i];
      switch (ev.kind) {
        case ScheduleEventKind::NbPost:
          open[ev.token] = {i, ev.what};
          break;
        case ScheduleEventKind::NbDone:
        case ScheduleEventKind::NbCancel: {
          if (open.erase(ev.token) == 0) {
            std::ostringstream os;
            os << ev.describe() << " closes a token that was never posted";
            out.push_back({ViolationKind::HandleLeak, r, i, os.str()});
          }
          break;
        }
        case ScheduleEventKind::StepEnd: {
          std::ostringstream os;
          os << "step_end(iteration=" << ev.token << ')';
          const std::string b = os.str();
          flush(b.c_str());
          break;
        }
        case ScheduleEventKind::Send:
        case ScheduleEventKind::Recv:
        case ScheduleEventKind::CollEnter:
        case ScheduleEventKind::Compute:
          break;
      }
    }
    flush("end of schedule");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check 4: traffic against the closed forms
// ---------------------------------------------------------------------------

std::vector<WindowTraffic> window_traffic(const ScheduleRecording& rec,
                                          std::size_t iteration) {
  std::vector<WindowTraffic> out(static_cast<std::size_t>(rec.size()));
  for (int r = 0; r < rec.size(); ++r) {
    const auto& events = rec.ranks[static_cast<std::size_t>(r)].events;
    std::size_t step = 0;
    WindowTraffic& wt = out[static_cast<std::size_t>(r)];
    for (const auto& ev : events) {
      if (ev.kind == ScheduleEventKind::StepEnd) {
        if (++step > iteration) break;
        continue;
      }
      if (step != iteration || ev.kind != ScheduleEventKind::Send) continue;
      switch (ev.coll) {
        case comm::Coll::AllReduce: wt.allreduce_bytes += ev.bytes; break;
        case comm::Coll::AllGather: wt.allgather_bytes += ev.bytes; break;
        case comm::Coll::PointToPoint: wt.p2p_bytes += ev.bytes; break;
        default: break;  // barrier / loss gather+broadcast are not modeled
      }
    }
  }
  return out;
}

std::vector<Violation> check_traffic(const ScheduleRecording& rec,
                                     const TrafficExpectation& expect) {
  std::vector<Violation> out;
  const int p = rec.size();
  MBD_CHECK_EQ(p, expect.pr * expect.pc);

  // All ranks must agree on the iteration count before windows mean anything.
  std::vector<std::size_t> steps(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    const auto& events = rec.ranks[static_cast<std::size_t>(r)].events;
    for (const auto& ev : events)
      if (ev.kind == ScheduleEventKind::StepEnd)
        ++steps[static_cast<std::size_t>(r)];
    if (steps[static_cast<std::size_t>(r)] != steps[0]) {
      std::ostringstream os;
      os << "rank recorded " << steps[static_cast<std::size_t>(r)]
         << " engine step(s) but rank 0 recorded " << steps[0];
      out.push_back({ViolationKind::TrafficMismatch, r,
                     events.empty() ? 0 : events.size() - 1, os.str()});
    }
  }
  if (!out.empty()) return out;
  if (steps[0] < 2) {
    out.push_back({ViolationKind::TrafficMismatch, 0, 0,
                   "need at least 2 recorded iterations: window 0 mixes in "
                   "setup traffic, so only windows >= 1 are checkable"});
    return out;
  }

  for (std::size_t it = 1; it < steps[0]; ++it) {
    const std::vector<WindowTraffic> got = window_traffic(rec, it);
    for (int r = 0; r < p; ++r) {
      const costmodel::RankVolume want = costmodel::trainer_rank_volume(
          expect.kind, expect.specs, expect.batch, expect.pr, expect.pc, r);
      const WindowTraffic& g = got[static_cast<std::size_t>(r)];
      auto mismatch = [&](const char* cls, std::uint64_t got_b,
                          std::uint64_t want_b) {
        if (got_b == want_b) return;
        std::ostringstream os;
        os << "iteration " << it << ' ' << cls << ": schedule moves " << got_b
           << " byte(s) but the closed form says " << want_b << " ("
           << costmodel::trainer_kind_name(expect.kind) << ", pr=" << expect.pr
           << ", pc=" << expect.pc << ", batch=" << expect.batch << ')';
        out.push_back({ViolationKind::TrafficMismatch, r, it, os.str()});
      };
      mismatch("allreduce", g.allreduce_bytes, want.allreduce_bytes);
      mismatch("allgather", g.allgather_bytes, want.allgather_bytes);
      mismatch("p2p", g.p2p_bytes, want.p2p_bytes);
    }
  }
  return out;
}

std::vector<Violation> run_all_checks(const ScheduleRecording& rec,
                                      const TrafficExpectation* expect) {
  std::vector<Violation> out = check_collective_matching(rec);
  auto append = [&](std::vector<Violation> v) {
    out.insert(out.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  };
  append(check_deadlock_free(rec));
  append(check_handle_lifetimes(rec));
  if (expect != nullptr) append(check_traffic(rec, *expect));
  return out;
}

}  // namespace mbd::analysis
