// TCP socket transport: one process per rank, length-prefixed frames.
//
// Wire model. Every rank binds a listening socket, then dials every peer
// once: the dialed connection is the rank's *send* channel to that peer and
// opens with a Hello frame (magic, protocol version, world size, sender
// rank); the accepted connections are its *receive* channels, one receive
// thread per peer, each depositing inbound Msg frames into the single local
// mailbox. TCP's per-connection ordering plus one connection per direction
// per peer preserves exactly the mailbox FIFO-per-channel guarantee of the
// in-process fabric, so collective schedules, seq/dedup, the validator and
// the fault injector run unchanged (see mbd/comm/transport.hpp).
//
// Frames are length-prefixed (u32 little-endian length, then a u8 type):
//
//   Hello        magic, version, world_size, sender rank
//   Msg          epoch, context, source, tag, seq, payload
//   RetryRequest epoch, starving rank — "flush whatever your fault injector
//                swallowed or deferred for me" (receiver-driven
//                retransmission across processes)
//   PeerFailure  epoch, failed rank, reason — a remote rank's primary error
//   Goodbye      clean close; EOF *without* Goodbye while a run is active is
//                a peer death and surfaces locally as RankFailure
//
// Failure semantics. A peer disconnect or PeerFailure poisons the local
// fabric and is rethrown by World::run as RankFailure, so
// World::run_restartable's coordinated teardown/rebuild works off-process:
// every rank advances to the next epoch, frames from dead epochs are
// dropped, and frames from ranks that restarted early buffer until the
// local fabric catches up.
//
// The framing layer (wire::) is pure in-memory encode/decode plus a
// write(2) loop, exposed for direct unit testing of partial writes, short
// reads, and interleaved frame streams.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mbd/comm/transport.hpp"

namespace mbd::comm {

namespace wire {

/// Frame types on a transport connection.
enum class FrameType : std::uint8_t {
  Hello = 1,
  Msg = 2,
  RetryRequest = 3,
  PeerFailure = 4,
  Goodbye = 5,
};

/// "mbdW" — first field of a Hello; rejects strangers dialing the port.
constexpr std::uint32_t kMagic = 0x6D626457;
/// Bumped on any frame-layout change; Hello carries it.
constexpr std::uint32_t kProtocolVersion = 2;
/// Ceiling on one frame's byte length; a larger length prefix means a
/// corrupt or hostile stream and decoding throws instead of allocating.
constexpr std::uint32_t kMaxFrameBytes = 1U << 30;

/// One decoded frame; which fields are meaningful depends on `type`.
struct Frame {
  FrameType type = FrameType::Goodbye;
  int epoch = 0;       ///< Msg / RetryRequest / PeerFailure
  int rank = -1;       ///< Hello: sender; RetryRequest: starving rank;
                       ///< PeerFailure: failed rank
  int world_size = 0;  ///< Hello
  std::string what;    ///< PeerFailure: reason
  Message msg;         ///< Msg (seq/payload included)
};

std::vector<std::byte> encode_hello(int rank, int world_size);
std::vector<std::byte> encode_message(int epoch, const Message& msg);
std::vector<std::byte> encode_retry_request(int epoch, int starving_rank);
std::vector<std::byte> encode_peer_failure(int epoch, int failed_rank,
                                           std::string_view what);
std::vector<std::byte> encode_goodbye();

/// Incremental decoder: feed() arbitrary chunks as read(2) produces them,
/// next() yields complete frames. Tolerates any chunking, including one
/// byte at a time and multiple frames per chunk.
class FrameDecoder {
 public:
  void feed(std::span<const std::byte> bytes);
  /// The next complete frame, or std::nullopt if more bytes are needed.
  /// Throws mbd::Error on a malformed frame (bad type, oversized length,
  /// truncated fixed fields).
  std::optional<Frame> next();
  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

/// write(2) the whole span to `fd`: loops over short writes, retries EINTR,
/// and poll()s through EAGAIN (blocking and non-blocking sockets both work).
/// Throws mbd::Error when the peer is gone (EPIPE/ECONNRESET/...).
void write_all(int fd, std::span<const std::byte> bytes);

}  // namespace wire

/// One peer's address for TcpTransport::connect_mesh. `host` is a numeric
/// IPv4 address ("127.0.0.1") or "localhost".
struct TcpEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

struct TcpOptions {
  /// Deadline for the whole mesh handshake (dial every peer + be dialed by
  /// every peer). Generous: under sanitizers process startup is slow.
  std::chrono::milliseconds connect_timeout{60'000};
  /// Drain grace on shutdown: how long to wait for each peer's Goodbye
  /// before force-closing the receive side.
  std::chrono::milliseconds shutdown_timeout{30'000};
  /// Announced latency class; drives the validator watchdog scale.
  TransportLatency latency = TransportLatency::LoopbackSocket;
  /// Hot-spare participants beyond world_size. The full mesh spans
  /// world_size + spares processes; participants world_size..world_size+S-1
  /// start idle (no logical slot) and are promoted into a dead rank's slot
  /// by Transport::promote. Every participant must agree on this value (it
  /// is validated by the Hello handshake via the total participant count).
  int spares = 0;
};

/// Socket transport hosting one rank of a multi-process world. Lifecycle:
/// construct (binds + listens, port() reports the ephemeral port), publish
/// the address, connect_mesh() with every rank's endpoint, hand the shared
/// transport to World(size, rank, transport), run; shutdown() (or the
/// destructor) exchanges Goodbyes and drains.
class TcpTransport final : public Transport {
 public:
  /// Bind and listen on host:port (port 0 picks an ephemeral port) and
  /// start accepting peers. Throws mbd::Error on bind failure.
  TcpTransport(int world_size, int rank, const std::string& host,
               std::uint16_t port, TcpOptions opts = {});
  ~TcpTransport() override;

  int world_size() const { return world_size_; }
  /// Physical participant id of this process (may be >= world_size for a
  /// hot spare). Routing keys on *logical* slots: deposit(dst) resolves the
  /// slot's current owner through the promotion table.
  int rank() const { return rank_; }
  /// Total physical participants (world_size + spares).
  int participants() const { return participants_; }
  /// Logical slot this participant currently occupies (-1: idle spare).
  int local_slot() const;
  /// The actually-bound listen port.
  std::uint16_t port() const { return port_; }

  /// Establish the full mesh: dial every participant's endpoint (retrying
  /// refusals until connect_timeout — peers may not be listening yet) and
  /// wait until every participant has dialed us. `peers[i]` addresses
  /// physical participant i (actives then spares); peers[rank()] is
  /// ignored. Throws mbd::Error on timeout.
  void connect_mesh(const std::vector<TcpEndpoint>& peers);

  /// Spare API: block until a rank failure is observed — a PeerFailure
  /// frame or a peer EOF without Goodbye — and return the failed logical
  /// slot. Returns nullopt when a peer closes cleanly first (the run ended
  /// without needing this spare) or `timeout` expires. The caller then
  /// promotes itself: promote(slot, rank()), begin_epoch(next), and builds
  /// a World over the slot.
  std::optional<int> await_failure(std::chrono::milliseconds timeout);

  /// Clean close: send Goodbye to every peer, drain until each peer's
  /// Goodbye (or shutdown_timeout), then close. Idempotent.
  void shutdown();
  /// Abrupt close with no Goodbye — peers observe a mid-run disconnect and
  /// surface RankFailure. Test hook for the peer-death path.
  void kill_for_test();

  // --- Transport ---------------------------------------------------------
  std::string_view name() const override { return "tcp"; }
  TransportLatency latency() const override { return opts_.latency; }
  void deposit(int dst, Message msg) override;
  void request_retransmit(int dst) override;
  void broadcast_failure(const std::string& what) override;
  std::exception_ptr take_failure() override;
  void attach(detail::Fabric* fabric) override;
  void begin_epoch(int epoch) override;
  /// Re-point logical slot `slot` at physical participant `spare` and mark
  /// the previous owner dead (its late EOF must not poison the repaired
  /// epoch). When `spare` is this participant, it adopts the slot as its
  /// local one. Called with no local rank threads running.
  void promote(int slot, int spare) override;

 private:
  struct Peer {
    std::mutex send_mu;  // one frame at a time per connection
    int send_fd = -1;    // the connection we dialed
    int recv_fd = -1;    // the connection the peer dialed
  };

  void accept_loop();
  void receive_loop(int peer_rank, int fd);
  // Route one inbound frame; returns false on Goodbye (loop exits).
  bool handle_frame(int peer_rank, wire::Frame f);
  void deposit_local_locked(Message msg);
  // Record a RankFailure for logical slot `slot` and poison the local
  // fabric.
  void fail_peer(int slot, const std::string& what);
  // Same, keyed by the physical participant a connection belongs to: maps
  // it to its current slot; a participant that is already dead (replaced by
  // promotion) or holds no slot (idle spare) is ignored.
  void fail_peer_phys(int phys, const std::string& what);
  void send_frame(int dst_slot, std::span<const std::byte> bytes);
  void close_all_fds();

  int world_size_;
  int rank_;           // physical participant id (may be >= world_size_)
  int participants_;   // world_size_ + opts_.spares
  TcpOptions opts_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  // By physical participant id; [rank_] unused.
  std::vector<std::unique_ptr<Peer>> peers_;
  std::thread accept_thread_;
  std::vector<std::thread> recv_threads_;

  std::atomic<bool> closing_{false};

  // Guards fabric_ (re-pointed by attach between runs while receive threads
  // deposit), epoch_, pending_, failure_, the promotion tables, and the
  // handshake counters.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int epoch_ = 0;
  int inbound_peers_ = 0;      // peers whose Hello we accepted
  int goodbyes_seen_ = 0;      // peers that closed cleanly
  int recv_loops_live_ = 0;    // receive threads still draining
  std::deque<wire::Frame> pending_;  // frames from a future epoch
  std::exception_ptr failure_;
  int failed_slot_ = -1;       // slot of the first recorded failure
  int local_slot_ = -1;        // slot this participant occupies (-1: spare)
  std::vector<int> slot_owner_;  // logical slot -> physical participant
  std::vector<char> dead_;       // physical participant -> replaced by promote
};

}  // namespace mbd::comm
