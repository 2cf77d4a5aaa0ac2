// World: spawns P ranks as threads and runs a function on each.
//
// This is the single-node, oversubscribed substitute for an MPI job (the
// paper ran on NERSC Cori). Collective *algorithms* and therefore message and
// byte counts are identical to the distributed setting; only wall-clock
// timing differs, and nothing in this project reports thread timing as
// cluster timing.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mbd/comm/comm.hpp"
#include "mbd/comm/fault.hpp"
#include "mbd/comm/stats.hpp"
#include "mbd/comm/transport.hpp"

namespace mbd::comm {

/// What World::run_restartable did: how many times it tore down and reran,
/// a human-readable restart log, and (when a fault injector is installed)
/// the cumulative injected-fault event log. Everything here is a
/// deterministic function of the fault plan — asserting equality across
/// runs is the replayability test.
/// One spare promotion performed by World::run_promotable: which spare took
/// which dead rank's slot at which epoch, and why. Deterministic under a
/// replayed fault plan, so tests pin the whole sequence.
struct Promotion {
  int epoch = 0;        ///< epoch the promoted spare first runs in
  int failed_rank = -1; ///< logical slot that died
  int spare = -1;       ///< participant id promoted into the slot (size_ + k)
  std::string reason;   ///< the RankFailure's message
};

struct RecoveryReport {
  int restarts = 0;
  /// One line per restart or promotion: which attempt failed and why.
  std::vector<std::string> log;
  /// FaultInjector::events() at completion (empty without an injector).
  std::vector<FaultEvent> events;
  /// Spare promotions, in order (empty under run_restartable).
  std::vector<Promotion> promotions;
  /// Per recovery attempt, the fabric-recovery step alone in nanoseconds:
  /// rebuild_fabric for run_restartable, promote + repair_fabric_in_place
  /// for run_promotable. Excludes the replayed training; bench_recovery
  /// compares the two paths with this.
  std::vector<std::uint64_t> repair_ns;
};

/// A fixed-size group of ranks backed by threads.
class World {
 public:
  /// Create a world of `size` ranks (size >= 1). Collective-call validation
  /// (see validator.hpp) starts enabled in Debug (!NDEBUG) builds.
  explicit World(int size);

  /// Distributed form: this process hosts exactly `local_rank` of a
  /// `size`-rank world, with the other ranks reached through `transport`
  /// (e.g. a connected TcpTransport). run() then executes `fn` on the local
  /// rank only; deposits to remote ranks go over the wire and peer failures
  /// surface as RankFailure, so run_restartable coordinates restarts across
  /// processes. The watchdog deadline scales with the transport's latency
  /// class and the validator observes the local rank only.
  World(int size, int local_rank, std::shared_ptr<Transport> transport);

  int size() const { return size_; }
  /// The rank this process hosts, or -1 for a thread-backed world.
  int local_rank() const { return local_rank_; }
  /// True for the distributed (one-rank-per-process) form.
  bool distributed() const { return local_rank_ >= 0; }
  /// The delivery strategy behind this world's fabric.
  const Transport& transport() const;

  /// Run `fn(comm)` on every rank concurrently; returns when all ranks
  /// finish. If any rank throws, the fabric is poisoned (blocked ranks are
  /// woken with an error) and the failing rank's original exception is
  /// rethrown here — secondary PoisonedErrors from woken peers never mask
  /// it. May be called repeatedly; mailboxes must be drained by each run
  /// (collective code always does). When validation is on, a nonblocking
  /// operation whose CollectiveHandle was never driven to completion fails
  /// the run with a named ValidationError ("leaked CollectiveHandle: ...")
  /// after the ranks join, distinct from the watchdog's deadlock report.
  void run(const std::function<void(Comm&)>& fn);

  /// run(fn) with crash recovery: a RankFailure (the injected-crash error —
  /// any other exception propagates unchanged) tears the poisoned fabric
  /// down, rebuilds it with the same validation / tracing / fault-injection
  /// configuration, advances the injector to the next epoch, and reruns
  /// `fn`. `fn` is responsible for restoring its own state (the parallel
  /// layer's CheckpointStore does exactly that); after `max_restarts`
  /// failed attempts the RankFailure is rethrown. Unlike run(), the World
  /// stays usable after an injected crash.
  RecoveryReport run_restartable(const std::function<void(Comm&)>& fn,
                                 int max_restarts = 3);

  /// Declare `spares` hot-spare participants available for promotion by
  /// run_promotable. Thread-backed worlds promote by spawning a fresh thread
  /// into the dead rank's slot; a distributed world additionally remaps the
  /// transport slot so the pre-connected spare process takes over the wire.
  /// Only call between run()s.
  void set_spares(int spares);
  int spares() const { return spares_; }

  /// run(fn) with spare-promotion recovery — the cheap alternative to
  /// run_restartable: on a rank-attributed RankFailure the fabric is
  /// repaired *in place* (only the dead rank's mailbox state, plus transient
  /// validator/recorder state, is rebuilt; no fabric teardown), the
  /// next spare participant is promoted into the dead slot via
  /// Transport::promote, and `fn` reruns. Survivors restore from their
  /// in-memory CheckpointStore exactly as under run_restartable. The
  /// RankFailure is rethrown when the spare pool is exhausted, when the
  /// failure cannot be attributed to a rank, or — distributed — on the
  /// victim process itself (the spare takes its slot; the victim exits).
  /// RecoveryReport::promotions records each promotion.
  RecoveryReport run_promotable(const std::function<void(Comm&)>& fn);

  /// Install a fault-injection plan for subsequent run() calls (replacing
  /// any previous one). Only call between run()s. See mbd/comm/fault.hpp.
  void install_faults(FaultPlan plan, FaultConfig cfg = {});
  /// The installed injector (event log, op counters); nullptr if none.
  FaultInjector* fault_injector() const;

  /// Traffic counters accumulated over all run() calls since construction or
  /// the last reset_stats().
  StatsSnapshot stats() const;
  void reset_stats();

  /// Start recording the full per-rank communication schedule (message
  /// sends/receives, collective-entry descriptors, nonblocking handle
  /// lifetimes, engine-step markers, annotated compute); subsequent run()
  /// calls append to it. This is the extraction substrate of the static
  /// schedule analyzer (mbd/analysis) and the input of trace-driven replay
  /// (mbd/costmodel/replay.hpp). See mbd/comm/schedule_recorder.hpp.
  void enable_schedule_recording();
  /// The recorded schedule; empty per-rank logs if recording was never
  /// enabled. Only call between run()s (rank threads append during one).
  const ScheduleRecording& schedule_recording() const;
  /// Clear the recorded events (recording stays enabled).
  void reset_schedule_recording();

  /// Turn on collective-call validation and the recv watchdog for subsequent
  /// run() calls (idempotent; on by default in Debug builds). Only call
  /// between run()s. See mbd/comm/validator.hpp for what is checked.
  void enable_validation();
  /// Turn validation back off. Only call between run()s.
  void disable_validation();
  bool validation_enabled() const;
  /// Watchdog timeout for blocking receives while validation is enabled
  /// (default Validator::kDefaultTimeout, overridable via the
  /// MBD_WATCHDOG_MS environment variable). Enables validation if needed.
  void set_validation_timeout(std::chrono::milliseconds t);
  /// The effective watchdog timeout; 0 when validation is off.
  std::chrono::milliseconds validation_timeout() const;

 private:
  void configure_validator(Validator& v) const;
  void rebuild_fabric(int next_epoch);
  void repair_fabric_in_place(int next_epoch);

  int size_;
  int local_rank_ = -1;  // -1: thread-backed, all ranks in-process
  int spares_ = 0;
  std::shared_ptr<detail::Fabric> fabric_;
};

}  // namespace mbd::comm
