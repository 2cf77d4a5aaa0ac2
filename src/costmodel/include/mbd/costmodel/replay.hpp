// Trace-driven replay: simulate the wall-clock of a recorded execution
// under an α–β machine model.
//
// The closed-form costs (strategy.hpp) charge each collective its textbook
// complexity; replay instead walks the *actual* per-rank event schedule a
// run produced (World::enable_schedule_recording, see
// mbd/comm/schedule_recorder.hpp) and advances per-rank clocks:
//
//   Send    — the sender is busy α + β·bytes, after which the message is
//             available to the receiver (store-and-forward, LogGP-flavoured;
//             the buffered runtime has no rendezvous, so sends never block);
//   Recv    — the receiver waits until max(own clock, message availability),
//             then pays α for the matching overhead;
//   Compute — the rank is busy for the annotated seconds.
//
// CollEnter, NbPost/NbDone/NbCancel and StepEnd events cost nothing and are
// skipped. A Recv is paired with its Send by per-channel FIFO on (context,
// source, destination, tag): the k-th Recv on a channel consumes the k-th
// Send on it. That is exactly how Mailbox::pop matches messages (FIFO per
// (context, source, tag), kept in order by sequence numbers under fault
// injection), so the pairing needs no message ids and holds for schedules
// recorded in separate processes alike.
//
// Under store-and-forward every byte consumes endpoint busy-time, so two
// schedules with the same events always replay to the same busy totals and
// comm/compute overlap is invisible — only waits can differ. The in-flight
// variant (ReplayOptions::inflight_transfer) instead charges the sender only
// the α injection overhead and lets β·bytes elapse on the wire: a receiver
// that computes past the arrival hides the transfer completely, which is
// precisely the DMA-style transport the paper's overlap factor f assumes.
// Use it to measure how much transfer a nonblocking schedule actually hides.
//
// The makespan therefore includes serialization chains, load imbalance, and
// dependency stalls that per-collective formulas cannot express, while
// using exactly the same α and β. Ring pipelines replay to their exact-
// latency cost (tested), validating LatencyMode::AlgorithmExact from a
// completely independent direction.
#pragma once

#include <vector>

#include "mbd/comm/schedule_recorder.hpp"
#include "mbd/costmodel/machine.hpp"

namespace mbd::costmodel {

/// Result of replaying one trace.
struct ReplayResult {
  std::vector<double> rank_finish;  ///< per-rank completion time (s)
  double makespan = 0.0;            ///< max over ranks
  double total_compute = 0.0;       ///< Σ annotated compute over all ranks
  double total_send_busy = 0.0;     ///< Σ α + β·bytes over all sends
  /// Σ time ranks spent blocked in Recv waiting for data.
  double total_recv_wait = 0.0;
  /// Send, Recv and Compute events replayed (other kinds are skipped).
  std::size_t events = 0;
};

/// Transport semantics for replay.
struct ReplayOptions {
  /// false (default): store-and-forward — the sender is busy α + β·bytes and
  /// the message is available when its send completes. true: in-flight (DMA)
  /// transfer — the sender is busy only α; β·bytes then elapses on the wire,
  /// so compute scheduled between initiation and completion hides it.
  bool inflight_transfer = false;
};

/// Replay `trace` under machine `m`. Throws mbd::Error if the trace is
/// inconsistent (a Recv whose Send never appears — cannot happen for
/// schedules recorded from a completed run).
ReplayResult replay_trace(const comm::ScheduleRecording& trace,
                          const MachineModel& m, ReplayOptions opts = {});

}  // namespace mbd::costmodel
