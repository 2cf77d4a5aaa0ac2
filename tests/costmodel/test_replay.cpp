// Trace-driven replay: hand-built schedules with analytic expectations, and
// recorded collective schedules replaying to the exact-latency closed forms.
#include "mbd/costmodel/replay.hpp"

#include <gtest/gtest.h>

#include "mbd/comm/world.hpp"
#include "mbd/support/check.hpp"

namespace mbd::costmodel {
namespace {

using comm::ScheduleEvent;
using comm::ScheduleEventKind;
using comm::ScheduleRecording;

MachineModel machine() { return MachineModel::cori_knl(); }

// Hand-built events: a Recv pairs with the Send of the same (source,
// destination, tag) channel in FIFO order, exactly as the mailbox matches.
ScheduleEvent send(int peer, std::uint64_t bytes, int tag = 0) {
  ScheduleEvent e;
  e.kind = ScheduleEventKind::Send;
  e.peer = peer;
  e.tag = tag;
  e.bytes = bytes;
  return e;
}
ScheduleEvent recv(int peer, std::uint64_t bytes, int tag = 0) {
  ScheduleEvent e = send(peer, bytes, tag);
  e.kind = ScheduleEventKind::Recv;
  return e;
}
ScheduleEvent compute(double s) {
  ScheduleEvent e;
  e.kind = ScheduleEventKind::Compute;
  e.seconds = s;
  return e;
}

TEST(Replay, EmptyTrace) {
  ScheduleRecording t;
  const auto r = replay_trace(t, machine());
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
  t = ScheduleRecording(3);
  const auto r3 = replay_trace(t, machine());
  EXPECT_DOUBLE_EQ(r3.makespan, 0.0);
  EXPECT_EQ(r3.rank_finish.size(), 3u);
}

TEST(Replay, PingPongAnalytic) {
  const auto m = machine();
  const std::uint64_t n = 4096;
  ScheduleRecording t(2);
  t.ranks[0].events = {send(1, n), recv(1, n)};
  t.ranks[1].events = {recv(0, n), send(0, n)};
  const auto r = replay_trace(t, m);
  // r0 send: α+βn. r1 recv: that +α; send: +α+βn. r0 recv: +α.
  const double expect = 4.0 * m.alpha + 2.0 * m.beta * static_cast<double>(n);
  EXPECT_NEAR(r.makespan, expect, 1e-15);
  EXPECT_NEAR(r.total_send_busy, 2.0 * (m.alpha + m.beta * n), 1e-15);
}

TEST(Replay, ComputeImbalanceDominatesMakespan) {
  const auto m = machine();
  ScheduleRecording t(2);
  // Rank 0 computes 1s, then sends; rank 1 waits on the message.
  t.ranks[0].events = {compute(1.0), send(1, 100)};
  t.ranks[1].events = {recv(0, 100)};
  const auto r = replay_trace(t, m);
  EXPECT_NEAR(r.rank_finish[0], 1.0 + m.alpha + m.beta * 100, 1e-12);
  EXPECT_NEAR(r.rank_finish[1], r.rank_finish[0] + m.alpha, 1e-12);
  EXPECT_NEAR(r.total_recv_wait, r.rank_finish[0], 1e-12);
  EXPECT_DOUBLE_EQ(r.total_compute, 1.0);
}

TEST(Replay, OverlappedComputeHidesWait) {
  const auto m = machine();
  ScheduleRecording t(2);
  t.ranks[0].events = {send(1, 1000)};
  // Rank 1 computes past the arrival time — zero recv wait.
  t.ranks[1].events = {compute(1.0), recv(0, 1000)};
  const auto r = replay_trace(t, m);
  EXPECT_DOUBLE_EQ(r.total_recv_wait, 0.0);
  EXPECT_NEAR(r.rank_finish[1], 1.0 + m.alpha, 1e-12);
}

TEST(Replay, InflightPingPongMatchesStoreAndForward) {
  // With no compute to hide behind, moving β·bytes from sender busy-time to
  // wire time changes who pays, not the round-trip: still 4α + 2βn.
  const auto m = machine();
  const std::uint64_t n = 4096;
  ScheduleRecording t(2);
  t.ranks[0].events = {send(1, n), recv(1, n)};
  t.ranks[1].events = {recv(0, n), send(0, n)};
  const auto r = replay_trace(t, m, {.inflight_transfer = true});
  const double expect = 4.0 * m.alpha + 2.0 * m.beta * static_cast<double>(n);
  EXPECT_NEAR(r.makespan, expect, 1e-15);
  // The sender is only busy the injection overhead; the wire time shows up
  // as the idle receiver's wait instead (first hop: α+βn; return hop: the
  // original sender idled since its own α, so it waits 2α+2βn).
  EXPECT_NEAR(r.total_send_busy, 2.0 * m.alpha, 1e-15);
  EXPECT_NEAR(r.total_recv_wait,
              3.0 * m.alpha + 3.0 * m.beta * static_cast<double>(n), 1e-15);
}

TEST(Replay, InflightTransferHiddenBehindCompute) {
  // A receiver that computes past the arrival pays nothing for the wire
  // time — the overlap the store-and-forward model cannot express.
  const auto m = machine();
  const std::uint64_t n = 60000;  // βn = 10 µs on cori_knl
  const double wire = m.beta * static_cast<double>(n);
  ScheduleRecording t(2);
  t.ranks[0].events = {send(1, n)};
  t.ranks[1].events = {compute(10.0 * wire), recv(0, n)};
  const auto r = replay_trace(t, m, {.inflight_transfer = true});
  EXPECT_DOUBLE_EQ(r.total_recv_wait, 0.0);
  EXPECT_NEAR(r.rank_finish[1], 10.0 * wire + m.alpha, 1e-12);

  // The same schedule without the compute exposes the full transfer (plus
  // the sender's injection overhead, since the receiver starts at t = 0).
  t.ranks[1].events = {recv(0, n)};
  const auto exposed = replay_trace(t, m, {.inflight_transfer = true});
  EXPECT_NEAR(exposed.total_recv_wait, m.alpha + wire, 1e-12);
}

TEST(Replay, InconsistentTraceThrows) {
  ScheduleRecording t(1);
  t.ranks[0].events = {recv(0, 8)};  // no matching send anywhere
  EXPECT_THROW(replay_trace(t, machine()), Error);
}

TEST(Replay, SameChannelPairsInFifoOrderAndSkipsMarkers) {
  // Two messages on one channel pair first-with-first, and a different tag
  // is a different channel: the 100-byte recv waits for the 100-byte send,
  // not for the earlier tag-7 one. Analyzer-only kinds cost nothing.
  const auto m = machine();
  ScheduleRecording t(2);
  ScheduleEvent enter;
  enter.kind = ScheduleEventKind::CollEnter;
  ScheduleEvent step;
  step.kind = ScheduleEventKind::StepEnd;
  t.ranks[0].events = {enter, send(1, 4, 7), send(1, 100), send(1, 8), step};
  t.ranks[1].events = {recv(0, 100), recv(0, 8), recv(0, 4, 7), step};
  const auto r = replay_trace(t, m);
  const double s1 = m.alpha + m.beta * 4;
  const double s2 = s1 + m.alpha + m.beta * 100;
  const double s3 = s2 + m.alpha + m.beta * 8;
  EXPECT_NEAR(r.rank_finish[0], s3, 1e-15);
  // Waits for s2, then for s3; the tag-7 message is already there.
  EXPECT_NEAR(r.rank_finish[1], s3 + 2.0 * m.alpha, 1e-15);
  EXPECT_NEAR(r.total_recv_wait, s3 - m.alpha, 1e-15);
  EXPECT_EQ(r.events, 6u);
}

TEST(Replay, OutOfOrderRanksStillResolve) {
  // Rank 1's events appear "before" rank 0's in rank order; the sweep must
  // still find the dependency order.
  const auto m = machine();
  ScheduleRecording t(3);
  t.ranks[2].events = {send(1, 64)};
  t.ranks[1].events = {recv(2, 64), send(0, 64)};
  t.ranks[0].events = {recv(1, 64)};
  const auto r = replay_trace(t, m);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_NEAR(r.rank_finish[0],
              2.0 * (m.alpha + m.beta * 64) + 2.0 * m.alpha, 1e-15);
}

TEST(Replay, RecordedRingAllReduceMatchesExactClosedForm) {
  // Replaying a recorded ring all-reduce must give exactly the serialized
  // per-step cost 2(P−1)·(2α + β·block_bytes) — the AlgorithmExact-style
  // latency (with both endpoints paying α) from an independent path.
  const auto m = machine();
  for (int p : {2, 4, 8}) {
    const std::size_t n = 1024;  // floats, divisible by p
    comm::World world(p);
    world.enable_schedule_recording();
    world.run([n](comm::Comm& c) {
      std::vector<float> v(n, 1.0f);
      c.allreduce(std::span<float>(v), std::plus<float>{},
                  comm::AllReduceAlgo::Ring);
    });
    const auto r = replay_trace(world.schedule_recording(), m);
    const double block_bytes = static_cast<double>(n) / p * sizeof(float);
    const double expect =
        2.0 * (p - 1) * (2.0 * m.alpha + m.beta * block_bytes);
    EXPECT_NEAR(r.makespan, expect, 1e-12) << "p=" << p;
  }
}

TEST(Replay, BruckBeatsRingOnLatencyForSmallMessages) {
  // The schedule-aware makespans reproduce the classic algorithm trade:
  // for small payloads Bruck's log steps beat the ring's P−1 steps.
  const auto m = machine();
  const std::size_t n = 4;  // tiny payload
  auto makespan = [&](comm::AllGatherAlgo algo) {
    comm::World world(8);
    world.enable_schedule_recording();
    world.run([&](comm::Comm& c) {
      std::vector<float> v(n, 1.0f);
      (void)c.allgather(std::span<const float>(v), algo);
    });
    return replay_trace(world.schedule_recording(), m).makespan;
  };
  EXPECT_LT(makespan(comm::AllGatherAlgo::Bruck),
            makespan(comm::AllGatherAlgo::Ring));
}

TEST(Replay, TracingOffByDefault) {
  comm::World world(2);
  world.run([](comm::Comm& c) {
    c.annotate_compute(0.25);  // no recording: a no-op
    c.barrier();
  });
  EXPECT_EQ(world.schedule_recording().total_events(), 0u);
}

TEST(Replay, ResetTraceClearsEvents) {
  comm::World world(2);
  world.enable_schedule_recording();
  world.run([](comm::Comm& c) { c.barrier(); });
  EXPECT_GT(world.schedule_recording().total_events(), 0u);
  world.reset_schedule_recording();
  EXPECT_EQ(world.schedule_recording().total_events(), 0u);
}

TEST(Replay, AnnotatedComputeRecorded) {
  comm::World world(2);
  world.enable_schedule_recording();
  world.run([](comm::Comm& c) {
    c.annotate_compute(0.25);
    c.barrier();
  });
  const auto r = replay_trace(world.schedule_recording(), machine());
  EXPECT_DOUBLE_EQ(r.total_compute, 0.5);  // 0.25 on each of 2 ranks
}

}  // namespace
}  // namespace mbd::costmodel
