// Per-rank mailboxes: the transport under the mbd::comm runtime.
//
// A send deposits a copy of the payload into the destination rank's mailbox
// (buffered semantics, so collective algorithms written as send-then-receive
// never deadlock). Messages are matched on (context, source, tag) and
// delivered FIFO per matching key, mirroring MPI's non-overtaking guarantee.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "mbd/support/check.hpp"

namespace mbd::comm {

/// Thrown by blocked receives (and attempted sends) after another rank
/// poisoned the fabric. Distinguished from primary failures so World::run
/// can rethrow the rank's original exception rather than one of the
/// secondary wakeup errors it caused.
class PoisonedError : public ::mbd::Error {
 public:
  using Error::Error;
};

/// Envelope for one in-flight message.
struct Message {
  std::uint64_t context = 0;  ///< communicator context id
  int source = -1;            ///< global rank of sender
  int tag = 0;
  /// Per-channel (context, source, tag) sequence number, 1-based; 0 marks an
  /// unsequenced message (no fault injector installed). Sequenced messages
  /// are delivered strictly in order and duplicates are dropped on deposit —
  /// the reliability substrate under injected drops and duplications.
  std::uint64_t seq = 0;
  std::vector<std::byte> payload;
};

/// Watchdog for a blocking pop: if no matching message arrives within
/// `timeout`, the pop throws an mbd::Error carrying `report()` — used by the
/// collective validator to turn silent deadlocks into diagnostics. When
/// `on_retry` is set, a pop still unmatched after each `retry_interval`
/// invokes it (with the mailbox unlocked) — the fault injector's timed
/// retransmission path for dropped deliveries.
struct PopWatch {
  std::chrono::milliseconds timeout{0};
  std::function<std::string()> report;
  std::chrono::milliseconds retry_interval{0};  ///< <= 0 disables retries
  std::function<void()> on_retry;
};

/// Thread-safe mailbox for one rank.
class Mailbox {
 public:
  /// Deposit a message (copies happen before the call).
  void push(Message msg);

  /// Block until a message matching (context, source, tag) is available and
  /// return the earliest such message. Throws PoisonedError if the fabric is
  /// poisoned (another rank threw) while waiting. If `watch` is non-null and
  /// the wait exceeds watch->timeout, throws mbd::Error with watch->report().
  Message pop(std::uint64_t context, int source, int tag,
              const PopWatch* watch = nullptr);

  /// Non-blocking pop: if a message matching (context, source, tag) is
  /// queued, move the earliest one into `out` and return true. Returns false
  /// when no match is available; throws PoisonedError if the fabric is
  /// poisoned and no match is queued. Used by CollectiveHandle::test().
  bool try_pop(std::uint64_t context, int source, int tag, Message& out);

  /// Wake all waiters so they can observe a poisoned fabric.
  void poison();

  /// Number of queued messages (diagnostic only).
  std::size_t pending() const;

  /// Drop every queued message. Sequence cursors fast-forward past the
  /// dropped messages so a later run reusing the same (context, source,
  /// tag) channels is not stuck waiting for sequence numbers that will
  /// never be sent again. Only call between World::run calls.
  void clear();

  /// Full reset for in-place fabric repair (spare promotion): drop every
  /// queued message, forget all sequence cursors, and un-poison. The next
  /// epoch restarts per-channel sequence numbering from 1, so cursors must
  /// start fresh rather than fast-forward. Only call between World::run
  /// calls with no rank threads blocked in pop().
  void reset();

 private:
  using ChannelKey = std::tuple<std::uint64_t, int, int>;

  // Sequenced messages deliver in order: a message matches only when its
  // seq is the channel's next expected. Plain (seq == 0) messages match
  // unconditionally. Callers hold mu_.
  bool matches(const Message& m, std::uint64_t context, int source,
               int tag) const;
  // Record consumption of `m` (advances the channel cursor).
  void consumed(const Message& m);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  // Per channel: next expected (not yet consumed) sequence number.
  std::map<ChannelKey, std::uint64_t> next_seq_;
  bool poisoned_ = false;
};

}  // namespace mbd::comm
