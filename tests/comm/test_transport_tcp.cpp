// TCP transport: wire framing (partial writes, short reads, interleaved
// streams), mesh handshake, cross-process semantics hosted in one test
// process (N TcpTransports on loopback, one distributed World per rank),
// fault-path parity (drop + wire retransmission, peer death → RankFailure),
// and bitwise trainer equivalence against the in-process fabric.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "mbd/comm/transport_tcp.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/parallel/model_parallel.hpp"
#include "mbd/parallel/pipeline.hpp"
#include "mbd/parallel/recovery.hpp"

namespace mbd::comm {
namespace {

using wire::Frame;
using wire::FrameDecoder;
using wire::FrameType;

Message make_msg(std::uint64_t context, int source, int tag,
                 std::size_t payload_bytes) {
  Message m;
  m.context = context;
  m.source = source;
  m.tag = tag;
  m.seq = 5;
  m.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i)
    m.payload[i] = static_cast<std::byte>((i * 7 + static_cast<std::size_t>(tag)) & 0xFF);
  return m;
}

// Feed `bytes` to the decoder in chunks of `chunk` and collect every frame.
std::vector<Frame> decode_chunked(std::span<const std::byte> bytes,
                                  std::size_t chunk) {
  FrameDecoder dec;
  std::vector<Frame> out;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    dec.feed(bytes.subspan(off, n));
    while (auto f = dec.next()) out.push_back(std::move(*f));
  }
  EXPECT_EQ(dec.buffered(), 0u);
  return out;
}

// --- framing ----------------------------------------------------------------

TEST(TcpFraming, AllFrameTypesRoundTripUnderAnyChunking) {
  std::vector<std::byte> stream;
  const auto append = [&](std::vector<std::byte> f) {
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(wire::encode_hello(2, 4));
  append(wire::encode_message(3, make_msg(0xfeed, 1, 42, 10)));
  append(wire::encode_retry_request(3, 2));
  append(wire::encode_peer_failure(3, 1, "it broke"));
  append(wire::encode_goodbye());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, stream.size()}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const auto frames = decode_chunked(stream, chunk);
    ASSERT_EQ(frames.size(), 5u);

    EXPECT_EQ(frames[0].type, FrameType::Hello);
    EXPECT_EQ(frames[0].rank, 2);
    EXPECT_EQ(frames[0].world_size, 4);

    EXPECT_EQ(frames[1].type, FrameType::Msg);
    EXPECT_EQ(frames[1].epoch, 3);
    EXPECT_EQ(frames[1].msg.context, 0xfeedu);
    EXPECT_EQ(frames[1].msg.source, 1);
    EXPECT_EQ(frames[1].msg.tag, 42);
    EXPECT_EQ(frames[1].msg.seq, 5u);
    EXPECT_EQ(frames[1].msg.payload, make_msg(0xfeed, 1, 42, 10).payload);

    EXPECT_EQ(frames[2].type, FrameType::RetryRequest);
    EXPECT_EQ(frames[2].epoch, 3);
    EXPECT_EQ(frames[2].rank, 2);

    EXPECT_EQ(frames[3].type, FrameType::PeerFailure);
    EXPECT_EQ(frames[3].rank, 1);
    EXPECT_EQ(frames[3].what, "it broke");

    EXPECT_EQ(frames[4].type, FrameType::Goodbye);
  }
}

TEST(TcpFraming, EmptyAndLargePayloads) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1 << 20}}) {
    const Message m = make_msg(9, 0, 7, n);
    const auto enc = wire::encode_message(1, m);
    FrameDecoder dec;
    dec.feed(enc);
    const auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->msg.payload, m.payload);
  }
}

TEST(TcpFraming, RejectsHelloWithWrongMagicOrVersion) {
  // Hello body: u8 type at offset 4, u32 magic at 5, u32 version at 9. A
  // peer speaking protocol version 1 (whose Msg frames carried an extra
  // 8-byte field) or a stranger with the wrong magic must be refused at
  // the handshake, before any Msg frame is misparsed.
  const auto patched = [](std::size_t offset, std::uint32_t value) {
    auto enc = wire::encode_hello(1, 4);
    std::memcpy(enc.data() + offset, &value, 4);
    return enc;
  };
  {
    FrameDecoder dec;
    dec.feed(wire::encode_hello(1, 4));
    const auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::Hello);
  }
  for (const auto& bad : {patched(9, 1), patched(5, wire::kMagic ^ 1U)}) {
    FrameDecoder dec;
    dec.feed(bad);
    EXPECT_THROW((void)dec.next(), ::mbd::Error);
  }
}

TEST(TcpFraming, RejectsUnknownFrameType) {
  auto enc = wire::encode_goodbye();
  enc[4] = static_cast<std::byte>(0xEE);  // corrupt the type byte
  FrameDecoder dec;
  dec.feed(enc);
  EXPECT_THROW((void)dec.next(), ::mbd::Error);
}

TEST(TcpFraming, RejectsOversizedLengthPrefixWithoutAllocating) {
  // Length prefix far past kMaxFrameBytes: decoding must throw on the prefix
  // alone, not wait for (or try to buffer) 4GB of body.
  const std::uint32_t huge = 0xFFFF0000;
  std::vector<std::byte> bytes(4);
  std::memcpy(bytes.data(), &huge, 4);
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_THROW((void)dec.next(), ::mbd::Error);
}

TEST(TcpFraming, RejectsTruncatedFixedFields) {
  // A Msg frame whose length says "5 bytes" but whose body can't hold the
  // fixed fields: Cursor bounds-checking must throw, not read past the end.
  auto enc = wire::encode_message(1, make_msg(1, 0, 0, 0));
  const std::uint32_t lie = 5;
  std::memcpy(enc.data(), &lie, 4);
  enc.resize(4 + lie);
  FrameDecoder dec;
  dec.feed(enc);
  EXPECT_THROW((void)dec.next(), ::mbd::Error);
}

TEST(TcpFraming, WriteAllSurvivesPartialWritesAndShortReads) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink the send buffer so a 1MB frame cannot fit: write_all must loop
  // over many partial writes while the reader drains in small bites.
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  const Message m = make_msg(0xabc, 0, 3, 1 << 20);
  const auto enc = wire::encode_message(2, m);

  std::vector<Frame> got;
  std::thread reader([&] {
    FrameDecoder dec;
    std::byte buf[777];  // deliberately odd read size
    while (true) {
      const ssize_t n = ::recv(fds[1], buf, sizeof(buf), 0);
      ASSERT_GE(n, 0);
      if (n == 0) break;
      dec.feed(std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
      while (auto f = dec.next()) got.push_back(std::move(*f));
    }
  });
  wire::write_all(fds[0], enc);
  ::shutdown(fds[0], SHUT_WR);
  reader.join();
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].epoch, 2);
  EXPECT_EQ(got[0].msg.payload, m.payload);
}

TEST(TcpFraming, InterleavedStreamsFromMultiplePeersStayIndependent) {
  // Two peers' byte streams arrive interleaved at arbitrary boundaries; each
  // connection has its own decoder, so frames reassemble independently.
  std::vector<std::byte> a, b;
  for (int i = 0; i < 20; ++i) {
    const auto fa = wire::encode_message(1, make_msg(7, 1, i, 100 + static_cast<std::size_t>(i)));
    const auto fb = wire::encode_message(1, make_msg(7, 2, i, 200 + static_cast<std::size_t>(i)));
    a.insert(a.end(), fa.begin(), fa.end());
    b.insert(b.end(), fb.begin(), fb.end());
  }
  FrameDecoder da, db;
  std::vector<Frame> ga, gb;
  std::size_t pa = 0, pb = 0;
  std::size_t step = 1;
  while (pa < a.size() || pb < b.size()) {
    const std::size_t na = std::min(step, a.size() - pa);
    const std::size_t nb = std::min(step * 2, b.size() - pb);
    if (na > 0) da.feed(std::span<const std::byte>(a).subspan(pa, na));
    if (nb > 0) db.feed(std::span<const std::byte>(b).subspan(pb, nb));
    pa += na;
    pb += nb;
    while (auto f = da.next()) ga.push_back(std::move(*f));
    while (auto f = db.next()) gb.push_back(std::move(*f));
    step = step % 97 + 1;
  }
  ASSERT_EQ(ga.size(), 20u);
  ASSERT_EQ(gb.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ga[static_cast<std::size_t>(i)].msg.tag, i);  // per-channel FIFO
    EXPECT_EQ(gb[static_cast<std::size_t>(i)].msg.tag, i);
    EXPECT_EQ(ga[static_cast<std::size_t>(i)].msg.payload.size(),
              100u + static_cast<std::size_t>(i));
    EXPECT_EQ(gb[static_cast<std::size_t>(i)].msg.payload.size(),
              200u + static_cast<std::size_t>(i));
  }
}

// --- a multi-rank TCP world in one test process -----------------------------

// N ranks, each with its own TcpTransport and distributed World, hosted on
// loopback in this process. Mirrors exactly what N separate processes do;
// connect_mesh must run concurrently (every rank dials while being dialed).
struct TcpWorld {
  std::vector<std::shared_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<World>> worlds;

  explicit TcpWorld(int n) {
    std::vector<TcpEndpoint> eps;
    for (int r = 0; r < n; ++r) {
      transports.push_back(
          std::make_shared<TcpTransport>(n, r, "127.0.0.1", 0));
      eps.push_back({"127.0.0.1", transports.back()->port()});
    }
    std::vector<std::thread> dialers;
    for (int r = 0; r < n; ++r) {
      dialers.emplace_back([&, r] { transports[static_cast<std::size_t>(r)]->connect_mesh(eps); });
    }
    for (auto& t : dialers) t.join();
    for (int r = 0; r < n; ++r) {
      worlds.push_back(std::make_unique<World>(n, r, transports[static_cast<std::size_t>(r)]));
    }
  }

  ~TcpWorld() {
    // Concurrently, as real processes do: shutdown() drains until every
    // peer's Goodbye, so sequential calls would serialize on the grace
    // period (rank 0 would wait for Goodbyes nobody has sent yet).
    std::vector<std::thread> closers;
    for (auto& t : transports) {
      closers.emplace_back([&t] { t->shutdown(); });
    }
    for (auto& t : closers) t.join();
  }

  // Run `fn` on every rank concurrently (each World spawns its one local
  // rank); rethrows the first rank's exception after all return.
  void run_all(const std::function<void(Comm&)>& fn) {
    std::vector<std::exception_ptr> errors(worlds.size());
    std::vector<std::thread> runners;
    for (std::size_t r = 0; r < worlds.size(); ++r) {
      runners.emplace_back([&, r] {
        try {
          worlds[r]->run(fn);
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
    for (auto& t : runners) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
};

TEST(TcpTransportWorld, PointToPointAcrossTheWire) {
  TcpWorld tw(2);
  tw.run_all([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<float> v(64);
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<float>(i);
      c.send(1, std::span<const float>(v), /*tag=*/9);
    } else {
      const auto v = c.recv<float>(0, /*tag=*/9);
      ASSERT_EQ(v.size(), 64u);
      for (std::size_t i = 0; i < v.size(); ++i)
        ASSERT_EQ(v[i], static_cast<float>(i));
    }
  });
}

TEST(TcpTransportWorld, CollectivesMatchLocalReference) {
  const int n = 3;
  TcpWorld tw(n);
  tw.run_all([n](Comm& c) {
    c.barrier();
    std::vector<float> v(32);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>(c.rank() * 100 + static_cast<int>(i));
    c.allreduce(std::span<float>(v));
    for (std::size_t i = 0; i < v.size(); ++i) {
      float want = 0.0f;
      for (int r = 0; r < n; ++r)
        want += static_cast<float>(r * 100 + static_cast<int>(i));
      ASSERT_EQ(v[i], want);
    }
    std::vector<float> b(16, c.rank() == 1 ? 3.5f : 0.0f);
    c.broadcast(std::span<float>(b), /*root=*/1);
    for (const float x : b) ASSERT_EQ(x, 3.5f);
  });
}

TEST(TcpTransportWorld, ManyTagsInterleaveIntoOneMailbox) {
  // Ranks 1 and 2 blast tagged messages at rank 0 concurrently; matching by
  // (source, tag) must pick each one out regardless of arrival interleaving.
  const int kMsgs = 50;
  TcpWorld tw(3);
  tw.run_all([kMsgs](Comm& c) {
    if (c.rank() == 0) {
      // Receive in an order unrelated to send order.
      for (int tag = kMsgs - 1; tag >= 0; --tag) {
        for (const int src : {2, 1}) {
          const auto v = c.recv<float>(src, tag);
          ASSERT_EQ(v.size(), 4u);
          ASSERT_EQ(v[0], static_cast<float>(src * 1000 + tag));
        }
      }
    } else {
      for (int tag = 0; tag < kMsgs; ++tag) {
        std::vector<float> v(4, static_cast<float>(c.rank() * 1000 + tag));
        c.send(0, std::span<const float>(v), tag);
      }
    }
  });
}

TEST(TcpTransportWorld, WatchdogScalesByLatencyClass) {
  TcpWorld tw(2);
  tw.worlds[0]->enable_validation();
  EXPECT_EQ(tw.worlds[0]->validation_timeout(),
            Validator::kDefaultTimeout * watchdog_scale(TransportLatency::LoopbackSocket));

  World local(2);
  local.enable_validation();
  EXPECT_EQ(local.validation_timeout(), Validator::kDefaultTimeout);

  // An explicit timeout is a contract, not a default: never scaled.
  tw.worlds[1]->set_validation_timeout(std::chrono::milliseconds(1234));
  EXPECT_EQ(tw.worlds[1]->validation_timeout(), std::chrono::milliseconds(1234));
}

TEST(TcpTransportWorld, PeerDeathSurfacesAsRankFailure) {
  TcpWorld tw(2);
  std::thread killer([&] {
    // Let rank 0 get into its recv, then die without a Goodbye.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    tw.transports[1]->kill_for_test();
  });
  try {
    tw.worlds[0]->run([](Comm& c) {
      if (c.rank() == 0) {
        (void)c.recv<float>(1, /*tag=*/0);  // never arrives
      }
    });
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
  }
  killer.join();
}

TEST(TcpTransportWorld, DroppedMessageRetransmitsAcrossTheWire) {
  // Drop rank 1's first send to rank 0 on the wire side; rank 0's watchdog
  // sends a RetryRequest frame, rank 1's injector flushes the swallowed
  // message back through the transport, and the recv completes. Both ranks
  // install the same plan, but only rank 1's send matches the trigger.
  TcpWorld tw(2);
  FaultPlan plan;
  FaultAction drop;
  drop.kind = FaultKind::DropMessage;
  drop.rank = 1;
  drop.op_index = 1;  // rank 1's first transport op is the send below
  plan.actions.push_back(drop);
  for (auto& w : tw.worlds) {
    w->install_faults(plan, {});
    w->set_validation_timeout(std::chrono::milliseconds(20'000));
  }
  tw.run_all([](Comm& c) {
    if (c.rank() == 1) {
      const std::vector<float> v(8, 2.0f);
      c.send(0, std::span<const float>(v), /*tag=*/5);
    } else {
      const auto got = c.recv<float>(1, /*tag=*/5);
      ASSERT_EQ(got.size(), 8u);
      for (const float x : got) ASSERT_EQ(x, 2.0f);
    }
  });
  EXPECT_GE(tw.worlds[1]->fault_injector()->events().size(), 1u);
}

// --- crash-restart and spare-promotion recovery over TCP --------------------

FaultPlan tcp_crash_plan(int rank, std::uint64_t op) {
  FaultPlan plan;
  plan.actions.push_back(
      {.kind = FaultKind::CrashRank, .rank = rank, .op_index = op});
  return plan;
}

// The pipeline problem from the in-process recovery matrix: one FC stage per
// rank, two microbatches, momentum, 7 iterations at checkpoint cadence 3.
struct PipelineProblem {
  std::vector<nn::LayerSpec> specs = nn::mlp_spec({12, 14, 12, 10, 8});
  nn::Dataset data = nn::make_synthetic_dataset(12, 8, 40, /*seed=*/23);
  nn::TrainConfig cfg;
  PipelineProblem() {
    cfg.batch = 8;
    cfg.lr = 0.02f;
    cfg.momentum = 0.9f;
    cfg.iterations = 7;
  }
  parallel::DistResult run(Comm& c, parallel::ReduceMode mode,
                           const parallel::RecoveryContext* rc) const {
    return parallel::train_pipeline(c, specs, data, cfg, /*microbatches=*/2,
                                    /*seed=*/42, mode, rc);
  }
};

/// In-process fault-free reference with an op-counting injector: the rank-1
/// op count places the crash mid-run, and op streams are transport-invariant.
parallel::DistResult pipeline_reference(const PipelineProblem& p,
                                        parallel::ReduceMode mode,
                                        std::uint64_t* rank1_ops) {
  World w(4);
  w.enable_validation();
  w.install_faults({});
  parallel::DistResult ref;
  std::mutex mu;
  w.run([&](Comm& c) {
    auto r = p.run(c, mode, nullptr);
    std::lock_guard lock(mu);
    if (c.rank() == 0) ref = std::move(r);
  });
  if (rank1_ops != nullptr) *rank1_ops = w.fault_injector()->op_count(1);
  return ref;
}

TEST(TcpRecovery, PipelineCrashRestartMatchesInProcessBitwise) {
  const PipelineProblem p;
  for (const auto mode :
       {parallel::ReduceMode::Blocking, parallel::ReduceMode::Overlapped}) {
    std::uint64_t rank1_ops = 0;
    const parallel::DistResult ref = pipeline_reference(p, mode, &rank1_ops);
    ASSERT_GT(rank1_ops, 4U);
    const FaultPlan plan = tcp_crash_plan(1, rank1_ops / 2);

    TcpWorld tw(4);
    parallel::CheckpointStore store(4);
    std::vector<parallel::DistResult> results(4);
    std::vector<int> restarts(4, 0);
    std::vector<std::exception_ptr> errors(4);
    std::vector<std::thread> runners;
    for (int r = 0; r < 4; ++r) {
      tw.worlds[static_cast<std::size_t>(r)]->install_faults(plan, {});
      tw.worlds[static_cast<std::size_t>(r)]->set_validation_timeout(
          std::chrono::milliseconds(120'000));
      runners.emplace_back([&, r] {
        try {
          parallel::RecoveryContext rc{&store, {.every = 3}};
          const auto rep = tw.worlds[static_cast<std::size_t>(r)]
                               ->run_restartable([&](Comm& c) {
                                 results[static_cast<std::size_t>(r)] =
                                     p.run(c, mode, &rc);
                               });
          restarts[static_cast<std::size_t>(r)] = rep.restarts;
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
        }
      });
    }
    for (auto& t : runners) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(restarts[static_cast<std::size_t>(r)], 1) << "rank " << r;
      EXPECT_EQ(results[static_cast<std::size_t>(r)].losses, ref.losses)
          << "rank " << r;
      EXPECT_EQ(results[static_cast<std::size_t>(r)].params, ref.params)
          << "rank " << r;
    }
  }
}

TEST(TcpRecovery, SparePromotionFourRanksOneSpare) {
  // Five participants: four active ranks plus one hot spare. Rank 1 takes an
  // injected crash; survivors run_promotable — detect the failure, promote
  // participant 4 into slot 1, repair their fabrics in place (no mesh
  // teardown) — while the spare's await_failure fires and it builds a World
  // over the adopted slot. Bitwise equality against the uninterrupted
  // in-process run, for the pipeline trainer.
  const PipelineProblem p;
  const auto mode = parallel::ReduceMode::Blocking;
  std::uint64_t rank1_ops = 0;
  const parallel::DistResult ref = pipeline_reference(p, mode, &rank1_ops);
  ASSERT_GT(rank1_ops, 4U);
  const FaultPlan plan = tcp_crash_plan(1, rank1_ops / 2);

  const int n = 4;
  const TcpOptions opts{.spares = 1};
  std::vector<std::shared_ptr<TcpTransport>> transports;
  std::vector<TcpEndpoint> eps;
  for (int r = 0; r < n + 1; ++r) {
    transports.push_back(
        std::make_shared<TcpTransport>(n, r, "127.0.0.1", 0, opts));
    eps.push_back({"127.0.0.1", transports.back()->port()});
  }
  EXPECT_EQ(transports[4]->local_slot(), -1);
  {
    std::vector<std::thread> dialers;
    for (auto& t : transports) {
      dialers.emplace_back([&t, &eps] { t->connect_mesh(eps); });
    }
    for (auto& t : dialers) t.join();
  }

  parallel::CheckpointStore store(n);
  std::vector<parallel::DistResult> results(n);
  std::vector<RecoveryReport> reports(n);
  std::atomic<bool> victim_failed{false};
  std::vector<std::exception_ptr> errors(n + 1);
  std::vector<std::thread> runners;
  for (int r = 0; r < n; ++r) {
    runners.emplace_back([&, r] {
      try {
        World w(n, r, transports[static_cast<std::size_t>(r)]);
        w.enable_validation();
        w.set_spares(1);
        w.set_validation_timeout(std::chrono::milliseconds(120'000));
        w.install_faults(plan, {});
        parallel::RecoveryContext rc{&store, {.every = 3}};
        reports[static_cast<std::size_t>(r)] = w.run_promotable([&](Comm& c) {
          results[static_cast<std::size_t>(r)] = p.run(c, mode, &rc);
        });
      } catch (const RankFailure&) {
        // The victim cannot be saved by promotion — its slot is given away.
        if (r == 1) victim_failed.store(true);
        else errors[static_cast<std::size_t>(r)] = std::current_exception();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  // The spare: wait for the failure, adopt the slot, run the same case.
  runners.emplace_back([&] {
    try {
      const auto slot =
          transports[4]->await_failure(std::chrono::milliseconds(120'000));
      ASSERT_TRUE(slot.has_value());
      ASSERT_EQ(*slot, 1);
      transports[4]->promote(*slot, transports[4]->rank());
      transports[4]->begin_epoch(1);
      World w(n, *slot, transports[4]);
      w.enable_validation();
      w.set_validation_timeout(std::chrono::milliseconds(120'000));
      // Same plan as everyone — and the same epoch advance the survivors'
      // repair applies, so rank 1's epoch-0 crash does not re-fire here.
      w.install_faults(plan, {});
      w.fault_injector()->begin_epoch(1);
      parallel::RecoveryContext rc{&store, {.every = 3}};
      w.run([&](Comm& c) {
        results[1] = p.run(c, mode, &rc);
      });
    } catch (...) {
      errors[4] = std::current_exception();
    }
  });
  for (auto& t : runners) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  EXPECT_TRUE(victim_failed.load());
  for (int r = 0; r < n; ++r) {
    if (r == 1) continue;  // the victim's report never materialized
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].restarts, 0)
        << "rank " << r;
    ASSERT_EQ(reports[static_cast<std::size_t>(r)].promotions.size(), 1U)
        << "rank " << r;
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].promotions[0].failed_rank,
              1);
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].promotions[0].spare, 4);
  }
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].losses, ref.losses)
        << "rank " << r;
    EXPECT_EQ(results[static_cast<std::size_t>(r)].params, ref.params)
        << "rank " << r;
  }
  // Concurrent shutdown, victim's transport included (it stayed connected —
  // fail-stop was simulated by the injected crash, not a socket teardown).
  std::vector<std::thread> closers;
  for (auto& t : transports) {
    closers.emplace_back([&t] { t->shutdown(); });
  }
  for (auto& t : closers) t.join();
}

TEST(TcpTransportWorld, ModelParallelTrainingMatchesInProcessBitwise) {
  const auto spec = nn::mlp_spec({24, 32, 10});
  const auto data = nn::make_synthetic_dataset(24, 10, 32, 13);
  nn::TrainConfig cfg;
  cfg.batch = 8;
  cfg.iterations = 2;

  parallel::DistResult local;
  World ref(2);
  ref.run([&](Comm& c) {
    auto r = parallel::train_model_parallel(c, spec, data, cfg, 42,
                                            parallel::ReduceMode::Blocking);
    if (c.rank() == 0) local = std::move(r);
  });

  std::vector<parallel::DistResult> tcp(2);
  TcpWorld tw(2);
  tw.run_all([&](Comm& c) {
    tcp[static_cast<std::size_t>(c.rank())] = parallel::train_model_parallel(
        c, spec, data, cfg, 42, parallel::ReduceMode::Blocking);
  });

  for (const auto& r : tcp) {
    ASSERT_EQ(r.losses.size(), local.losses.size());
    for (std::size_t i = 0; i < local.losses.size(); ++i)
      EXPECT_EQ(r.losses[i], local.losses[i]) << "loss " << i;
    ASSERT_EQ(r.params.size(), local.params.size());
    for (std::size_t i = 0; i < local.params.size(); ++i)
      ASSERT_EQ(r.params[i], local.params[i]) << "param " << i;
  }
}

}  // namespace
}  // namespace mbd::comm
