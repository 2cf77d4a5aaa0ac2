// Schedule recording: the raw material of the static schedule analyzer.
//
// When a World has recording enabled, every transport-level event lands in a
// per-rank, program-ordered log: message sends (at deposit), message receives
// (at consumption — for nonblocking collectives that is inside test()/wait(),
// so the log *is* the post→wait ordering), collective entries (the same
// CollectiveDesc the runtime validator rendezvous-matches, but kept instead
// of discarded), nonblocking handle lifetimes, engine-step boundaries, and
// annotated compute intervals (Comm::annotate_compute).
//
// The recording is the comm layer's half of two contracts: with
// mbd/analysis, which checks it (cross-rank matching, deadlock simulation,
// handle-lifetime and traffic verification), and with
// mbd::costmodel::replay_trace, which replays its Send/Recv/Compute events
// under an α–β machine model. This header defines only the event model and
// the log. Like the Validator, the recording is allocated strictly before
// rank threads exist and each rank appends only to its own log, so
// recording needs no synchronization beyond the World join.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mbd/comm/stats.hpp"
#include "mbd/comm/validator.hpp"

namespace mbd::comm {

/// What one schedule event is. Send/Recv are transport messages (collective
/// rounds and user point-to-point alike); CollEnter is a collective-entry
/// descriptor; NbPost/NbDone/NbCancel bracket a CollectiveHandle's lifetime;
/// StepEnd is the engine's end-of-iteration marker; Compute is an annotated
/// compute interval that only replay reads.
enum class ScheduleEventKind : std::uint8_t {
  Send,
  Recv,
  CollEnter,
  NbPost,
  NbDone,
  NbCancel,
  StepEnd,
  Compute,
};

/// Human-readable name of a ScheduleEventKind value.
std::string_view schedule_event_kind_name(ScheduleEventKind k);

/// One recorded event. Field applicability by kind:
///   Send:      context, peer (global dst), tag, bytes, coll
///   Recv:      context, peer (global src), tag, bytes
///   CollEnter: context, comm_rank, comm_size, desc
///   NbPost:    token, what
///   NbDone / NbCancel: token
///   StepEnd:   token (= engine iteration index)
///   Compute:   seconds
struct ScheduleEvent {
  ScheduleEventKind kind = ScheduleEventKind::Send;
  std::uint64_t context = 0;
  int peer = -1;
  int tag = 0;
  std::uint64_t bytes = 0;
  Coll coll = Coll::PointToPoint;
  CollectiveDesc desc{};
  int comm_rank = -1;
  int comm_size = 0;
  std::uint64_t token = 0;
  double seconds = 0.0;
  std::string what;

  /// One-line description for diagnostics ("send(to=3, tag=1, bytes=64)").
  std::string describe() const;
};

/// Per-rank event log plus the rank-local token counter for nonblocking
/// handles (rank-local, so issuing needs no atomics).
struct RankScheduleLog {
  std::vector<ScheduleEvent> events;
  std::uint64_t next_nb_token = 1;
};

/// The full recording of one (or more) World::run calls: one program-ordered
/// log per global rank. Plain data — the analysis layer consumes it, and
/// negative tests hand-build it.
struct ScheduleRecording {
  ScheduleRecording() = default;
  explicit ScheduleRecording(int world_size)
      : ranks(static_cast<std::size_t>(world_size)) {}

  std::vector<RankScheduleLog> ranks;

  int size() const { return static_cast<int>(ranks.size()); }
  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& r : ranks) n += r.events.size();
    return n;
  }
};

}  // namespace mbd::comm
