// Communicator: rank-addressed message passing plus the collective
// algorithms the paper's cost model assumes.
//
// The collectives are implemented with the textbook algorithms cited by the
// paper (Thakur, Rabenseifner & Gropp 2005):
//   * all-gather  — Bruck (⌈log P⌉ rounds) and ring (P-1 rounds)
//   * all-reduce  — ring (reduce-scatter + all-gather) and recursive doubling
//   * reduce-scatter — ring
//   * broadcast / reduce — binomial tree
//   * barrier     — dissemination
// so the instrumented byte counts match the α–β model terms exactly:
// per-process all-gather volume = (P-1)/P · n, ring all-reduce = 2(P-1)/P · n.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "mbd/comm/fabric.hpp"
#include "mbd/comm/nonblocking.hpp"
#include "mbd/comm/validator.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/support/check.hpp"

namespace mbd::comm {

namespace detail {
struct NbAccess;
}

/// Algorithm selection for all-gather.
enum class AllGatherAlgo { Bruck, Ring };
/// Algorithm selection for all-reduce.
/// Ring and Rabenseifner move 2(P−1)/P·n words per process (bandwidth
/// optimal); RecursiveDoubling moves n·⌈log₂P⌉ (latency optimal for small n).
enum class AllReduceAlgo { Ring, RecursiveDoubling, Rabenseifner };

/// A communicator over a subset of a World's ranks. Cheap to copy.
///
/// All collective members must be called by every rank of the communicator
/// (standard MPI semantics). Point-to-point source/destination arguments are
/// ranks *within this communicator*.
class Comm {
 public:
  Comm(std::shared_ptr<detail::Fabric> fabric, std::uint64_t context,
       std::shared_ptr<const std::vector<int>> members, int rank);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_->size()); }

  /// --- point to point -----------------------------------------------------

  /// Send `data` to communicator rank `dst` with `tag`. Buffered: returns as
  /// soon as the payload is deposited in the destination mailbox.
  template <typename T>
  void send(int dst, std::span<const T> data, int tag = 0) {
    send_bytes(dst, as_bytes_span(data), tag, Coll::PointToPoint);
  }
  /// Deduction helper: accept a mutable span without an explicit cast.
  template <typename T>
    requires(!std::is_const_v<T>)
  void send(int dst, std::span<T> data, int tag = 0) {
    send(dst, std::span<const T>(data), tag);
  }

  /// Receive a message from communicator rank `src` with `tag`; blocks.
  template <typename T>
  std::vector<T> recv(int src, int tag = 0) {
    return from_bytes<T>(recv_bytes(src, tag));
  }

  /// Simultaneous exchange with (possibly different) peers; deadlock-free by
  /// buffered-send construction. Used for halo exchange.
  template <typename T>
  std::vector<T> sendrecv(int dst, std::span<const T> send_data, int src,
                          int tag = 0) {
    obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "sendrecv");
    obs_span.set_args(send_data.size() * sizeof(T), 0);
    send_bytes(dst, as_bytes_span(send_data), tag, Coll::PointToPoint);
    return from_bytes<T>(recv_bytes(src, tag));
  }

  /// --- nonblocking operations ---------------------------------------------
  ///
  /// Each i* call deposits its first round of messages and returns a
  /// CollectiveHandle; overlap compute with the operation and then wait().
  /// The spans/pointers passed in must stay alive and unmodified (except by
  /// the operation itself) until the handle reports done(). Nonblocking
  /// collectives must be issued through the same Comm object on every rank
  /// and in the same program order (their private tag blocks are derived
  /// from a per-communicator issue counter). See mbd/comm/nonblocking.hpp
  /// for progress and validator semantics.

  /// Nonblocking ring all-reduce (elementwise, in place). Identical message
  /// schedule, byte counts, and reduction order as the blocking ring — the
  /// completed result is bitwise equal to allreduce(..., AllReduceAlgo::Ring).
  template <typename T, typename Op = std::plus<T>>
  CollectiveHandle iallreduce(std::span<T> data, Op op = {});

  /// Nonblocking ring all-gather of equal-size blocks into caller-owned
  /// `out` (size local.size() * P, rank-ordered). This rank's block is
  /// copied in at initiation.
  template <typename T>
  CollectiveHandle iallgather(std::span<const T> local, std::span<T> out);

  /// Nonblocking ring all-gather of VARIABLE-size blocks; `*out` receives
  /// the rank-ordered concatenation at completion.
  template <typename T>
  CollectiveHandle iallgatherv(std::span<const T> local, std::vector<T>* out);

  /// Nonblocking exchange with (possibly different) peers: `send_data` is
  /// deposited to `dst` immediately; the handle completes the receive from
  /// `src` into `*recv_out`. Matching mirrors sendrecv() (user tag space),
  /// so blocking sends pair with it fine. Used for halo exchange overlapped
  /// with interior compute.
  template <typename T>
  CollectiveHandle isendrecv(int dst, std::span<const T> send_data, int src,
                             std::vector<T>* recv_out, int tag = 0);

  /// --- collectives ---------------------------------------------------------

  /// Dissemination barrier: ⌈log2 P⌉ rounds.
  void barrier();

  /// Binomial-tree broadcast of root's `data` (all ranks pass equal sizes).
  template <typename T>
  void broadcast(std::span<T> data, int root);

  /// Binomial-tree reduction into `data` on root (other ranks' buffers are
  /// left partially combined — treat them as scratch). Op must be
  /// commutative and associative.
  template <typename T, typename Op = std::plus<T>>
  void reduce(std::span<T> data, int root, Op op = {});

  /// All-gather of equal-size local blocks; result is ordered by rank.
  template <typename T>
  std::vector<T> allgather(std::span<const T> local,
                           AllGatherAlgo algo = AllGatherAlgo::Bruck);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> allgather(std::span<T> local,
                           AllGatherAlgo algo = AllGatherAlgo::Bruck) {
    return allgather(std::span<const T>(local), algo);
  }

  /// All-gather of VARIABLE-size blocks (ring algorithm, P−1 rounds); the
  /// result is the rank-ordered concatenation. Unlike allgather(), ranks may
  /// pass different local sizes — used by the partitioned trainers when a
  /// dimension does not divide evenly.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> allgatherv(std::span<T> local) {
    return allgatherv(std::span<const T>(local));
  }

  /// All-reduce (elementwise, in place).
  template <typename T, typename Op = std::plus<T>>
  void allreduce(std::span<T> data, Op op = {},
                 AllReduceAlgo algo = AllReduceAlgo::Ring);

  /// Ring reduce-scatter: returns this rank's reduced block (block r of the
  /// canonical P-way partition of [0, n)).
  template <typename T, typename Op = std::plus<T>>
  std::vector<T> reduce_scatter(std::span<const T> data, Op op = {});

  /// Linear gather to root; result (root only) is rank-ordered concatenation.
  template <typename T>
  std::vector<T> gather(std::span<const T> local, int root);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> gather(std::span<T> local, int root) {
    return gather(std::span<const T>(local), root);
  }

  /// Linear scatter from root of equal `chunk`-sized pieces.
  template <typename T>
  std::vector<T> scatter(std::span<const T> all, int root, std::size_t chunk);

  /// All-to-all of equal `chunk`-sized pieces: `data` holds P chunks, chunk
  /// r destined for rank r; the result holds chunk s from each rank s, in
  /// rank order. Ring-offset pairwise exchange, P−1 rounds; traffic is
  /// recorded under the Gather class (no strategy in this project uses
  /// all-to-all, so it never pollutes the validated classes).
  template <typename T>
  std::vector<T> alltoall(std::span<const T> data, std::size_t chunk);
  template <typename T>
    requires(!std::is_const_v<T>)
  std::vector<T> alltoall(std::span<T> data, std::size_t chunk) {
    return alltoall(std::span<const T>(data), chunk);
  }

  /// Collective split, MPI_Comm_split semantics: ranks with equal `color`
  /// form a new communicator, ordered by (key, parent rank).
  Comm split(int color, int key);

  /// If the World is recording schedules, mark the end of engine iteration
  /// `iteration` in this rank's log (no-op otherwise). The analyzer uses
  /// these markers to carve per-iteration traffic windows and to bound
  /// nonblocking-handle lifetimes to their epoch.
  void mark_engine_step(std::size_t iteration);

  /// If the World records its schedule, log `seconds` of modeled compute on
  /// this rank at the current point in its event stream (no-op otherwise).
  /// Replay uses these annotations to interleave compute with communication.
  void annotate_compute(double seconds);

  /// Canonical block partition of n elements over P ranks: element range of
  /// block `b` is [block_lo(n,P,b), block_lo(n,P,b+1)).
  static std::size_t block_lo(std::size_t n, int p, int b) {
    return (n * static_cast<std::size_t>(b)) / static_cast<std::size_t>(p);
  }

 private:
  template <typename T>
  static std::span<const std::byte> as_bytes_span(std::span<const T> s) {
    return {reinterpret_cast<const std::byte*>(s.data()), s.size_bytes()};
  }
  template <typename T>
  static std::vector<T> from_bytes(std::vector<std::byte> b) {
    MBD_CHECK_EQ(b.size() % sizeof(T), 0u);
    std::vector<T> out(b.size() / sizeof(T));
    // Zero-length payloads are legal and their data() may be null; memcpy's
    // arguments are declared nonnull even for n == 0 (UBSan enforces this).
    if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
    return out;
  }

  // `reserved_op` != 0 marks a nonblocking ring-round send carrying an op
  // identity reserved at initiation (see reserve_nb_ops): the injector fires
  // faults against that exact identity instead of the live op counter, so
  // drain-time polling cannot shift which op a fault lands on.
  void send_bytes(int dst, std::span<const std::byte> data, int tag, Coll c,
                  std::uint64_t reserved_op = 0);
  // `counted` == false skips the injector op count: nonblocking Block
  // receives are uncounted because whether a round completes via a test()
  // poll (never counted) or a wait() blocking recv is timing-dependent.
  std::vector<std::byte> recv_bytes(int src, int tag, bool counted = true);
  // Nonblocking variant: false (and `out` untouched) when no matching
  // message has been delivered yet.
  bool try_recv_bytes(int src, int tag, std::vector<std::byte>& out);
  // Reserve `rounds` consecutive injector op identities for a nonblocking
  // collective at initiation. Initiation is program-ordered across ranks, so
  // the identities are deterministic no matter how the op is later drained.
  // Returns the first identity, or 0 when no injector is installed.
  std::uint64_t reserve_nb_ops(std::uint64_t rounds);
  int global_rank(int comm_rank) const;

  // Append a Recv event to this rank's schedule log (no-op when the World
  // is not recording). Shared by the blocking and nonblocking receive paths.
  void record_recv(int gme, int gsrc, int tag, std::size_t bytes);

  // Registers `op` with the validator (leak tracking), eagerly advances it
  // once (posting round-0 sends), and wraps it in a handle. `op_name` must
  // point at a string literal: the profiler keeps it for the lifetime of the
  // timeline (CollPost span label + completion-span label via obs_what).
  CollectiveHandle make_handle(std::unique_ptr<detail::PendingOp> op,
                               const char* op_name, std::string what);

  // Registers a collective entry with the World's validator (no-op when
  // validation is off). Throws ValidationError on a cross-rank mismatch.
  void validate_entry(const CollectiveDesc& desc);

  // Internal tags are offset per collective so user p2p traffic on the same
  // communicator can never be confused with collective traffic.
  static constexpr int kInternalTagBase = 1 << 20;
  static int internal_tag(Coll c, int step) {
    return kInternalTagBase + (static_cast<int>(c) << 12) + step;
  }

  // Nonblocking collectives draw a private tag block per operation instance
  // so several may be outstanding on one communicator without their round
  // messages cross-matching (the mailbox matches on (context, source, tag)
  // only). The issue counter is consistent across ranks because standard
  // collective semantics require identical program order; its wraparound is
  // safe because kNbSeqWrap operations can never be simultaneously in
  // flight. The block sits above both the user tag space and
  // kInternalTagBase.
  static constexpr int kNbTagBase = 1 << 24;
  static constexpr int kNbTagStride = 1 << 12;  // max rounds per op
  static constexpr int kNbSeqWrap = 1 << 14;
  int nb_tag_block() {
    const int seq = nb_seq_;
    nb_seq_ = (nb_seq_ + 1) % kNbSeqWrap;
    return kNbTagBase + seq * kNbTagStride;
  }

  template <typename T, typename Op>
  void allreduce_ring(std::span<T> data, Op op);
  template <typename T, typename Op>
  void allreduce_recursive_doubling(std::span<T> data, Op op);
  template <typename T, typename Op>
  void allreduce_rabenseifner(std::span<T> data, Op op);
  template <typename T>
  std::vector<T> allgather_bruck(std::span<const T> local);
  template <typename T>
  std::vector<T> allgather_ring(std::span<const T> local);

  // Collective-internal send/recv that records under class `c`.
  template <typename T>
  void csend(int dst, std::span<const T> data, Coll c, int step) {
    send_bytes(dst, as_bytes_span(data), internal_tag(c, step), c);
  }
  template <typename T>
  std::vector<T> crecv(int src, Coll c, int step) {
    return from_bytes<T>(recv_bytes(src, internal_tag(c, step)));
  }

  friend struct detail::NbAccess;

  std::shared_ptr<detail::Fabric> fabric_;
  std::uint64_t context_;
  std::shared_ptr<const std::vector<int>> members_;  // comm rank -> global rank
  int rank_;
  int split_seq_ = 0;  // number of splits performed (consistent across ranks)
  int nb_seq_ = 0;     // nonblocking ops issued (consistent across ranks)
};

namespace detail {

/// Byte-level transport access for the nonblocking op state machines; keeps
/// the friendship surface to one struct instead of one per op template.
struct NbAccess {
  static void send(Comm& c, int dst, std::span<const std::byte> data, int tag,
                   Coll cl, std::uint64_t op_id = 0) {
    c.send_bytes(dst, data, tag, cl, op_id);
  }
  static std::vector<std::byte> recv(Comm& c, int src, int tag) {
    // Nonblocking Block receives are uncounted: a round that completes via a
    // test() poll performs no blocking recv at all, so counting the wait()
    // path would make op indices depend on drain timing.
    return c.recv_bytes(src, tag, /*counted=*/false);
  }
  static bool try_recv(Comm& c, int src, int tag,
                       std::vector<std::byte>& out) {
    return c.try_recv_bytes(src, tag, out);
  }
  template <typename T>
  static std::span<const std::byte> bytes(std::span<const T> s) {
    return Comm::as_bytes_span(s);
  }
  template <typename T>
  static std::vector<T> typed(std::vector<std::byte> b) {
    return Comm::from_bytes<T>(std::move(b));
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Template implementations.
// ---------------------------------------------------------------------------

template <typename T>
void Comm::broadcast(std::span<T> data, int root) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "broadcast");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::Broadcast,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .root = root});
  if (p == 1) return;
  const int vr = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      auto in = crecv<T>((vr - mask + root) % p, Coll::Broadcast, 0);
      MBD_CHECK_EQ(in.size(), data.size());
      std::copy(in.begin(), in.end(), data.begin());
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      csend<T>((vr + mask + root) % p, std::span<const T>(data), Coll::Broadcast, 0);
    }
    mask >>= 1;
  }
}

template <typename T, typename Op>
void Comm::reduce(std::span<T> data, int root, Op op) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "reduce");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::Reduce,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name(),
                  .root = root});
  if (p == 1) return;
  const int vr = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int partner = vr | mask;
      if (partner < p) {
        auto in = crecv<T>((partner + root) % p, Coll::Reduce, 0);
        MBD_CHECK_EQ(in.size(), data.size());
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = op(data[i], in[i]);
      }
    } else {
      csend<T>((vr - mask + root) % p, std::span<const T>(data), Coll::Reduce, 0);
      break;
    }
    mask <<= 1;
  }
}

template <typename T>
std::vector<T> Comm::allgather(std::span<const T> local, AllGatherAlgo algo) {
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "allgather");
  obs_span.set_args(local.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllGather,
                  .count = local.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .algo = static_cast<int>(algo)});
  switch (algo) {
    case AllGatherAlgo::Bruck: return allgather_bruck(local);
    case AllGatherAlgo::Ring: return allgather_ring(local);
  }
  MBD_CHECK(false);
  return {};
}

template <typename T>
std::vector<T> Comm::allgather_bruck(std::span<const T> local) {
  const int p = size();
  const std::size_t m = local.size();
  std::vector<T> buf(local.begin(), local.end());
  if (p == 1) return buf;
  buf.reserve(m * static_cast<std::size_t>(p));
  // After the loop, buf holds blocks of ranks (r, r+1, ..., r+p-1) mod p.
  int step = 0;
  for (int k = 1; k < p; k <<= 1, ++step) {
    const int nblocks = std::min(k, p - k);
    const int dst = (rank_ - k + p) % p;
    const int src = (rank_ + k) % p;
    csend<T>(dst,
             std::span<const T>(buf.data(),
                                static_cast<std::size_t>(nblocks) * m),
             Coll::AllGather, step);
    auto in = crecv<T>(src, Coll::AllGather, step);
    MBD_CHECK_EQ(in.size(), static_cast<std::size_t>(nblocks) * m);
    buf.insert(buf.end(), in.begin(), in.end());
  }
  MBD_CHECK_EQ(buf.size(), m * static_cast<std::size_t>(p));
  // Rotate so block i corresponds to rank i.
  std::vector<T> out(buf.size());
  for (int b = 0; b < p; ++b) {
    const int owner = (rank_ + b) % p;
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(b) * static_cast<std::ptrdiff_t>(m),
                m,
                out.begin() + static_cast<std::ptrdiff_t>(owner) * static_cast<std::ptrdiff_t>(m));
  }
  return out;
}

template <typename T>
std::vector<T> Comm::allgather_ring(std::span<const T> local) {
  const int p = size();
  const std::size_t m = local.size();
  std::vector<T> out(m * static_cast<std::size_t>(p));
  std::copy(local.begin(), local.end(),
            out.begin() + static_cast<std::ptrdiff_t>(rank_) * static_cast<std::ptrdiff_t>(m));
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_block = (rank_ - s + p) % p;
    const int recv_block = (rank_ - s - 1 + p) % p;
    csend<T>(right,
             std::span<const T>(out.data() + static_cast<std::size_t>(send_block) * m, m),
             Coll::AllGather, s);
    auto in = crecv<T>(left, Coll::AllGather, s);
    MBD_CHECK_EQ(in.size(), m);
    std::copy(in.begin(), in.end(),
              out.begin() + static_cast<std::ptrdiff_t>(recv_block) * static_cast<std::ptrdiff_t>(m));
  }
  return out;
}

template <typename T>
std::vector<T> Comm::alltoall(std::span<const T> data, std::size_t chunk) {
  const int p = size();
  MBD_CHECK_EQ(data.size(), chunk * static_cast<std::size_t>(p));
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "alltoall");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllToAll,
                  .count = chunk,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name()});
  std::vector<T> out(data.size());
  // Own chunk moves locally.
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(rank_) * chunk),
              chunk,
              out.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(rank_) * chunk));
  // Ring-offset schedule, valid for any P: at step s send the chunk for
  // rank (rank+s) and receive the chunk from rank (rank−s).
  for (int s = 1; s < p; ++s) {
    const int dst = (rank_ + s) % p;
    const int src = (rank_ - s + p) % p;
    csend<T>(dst,
             data.subspan(static_cast<std::size_t>(dst) * chunk, chunk),
             Coll::Gather, s);
    auto in = crecv<T>(src, Coll::Gather, s);
    MBD_CHECK_EQ(in.size(), chunk);
    std::copy(in.begin(), in.end(),
              out.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(src) * chunk));
  }
  return out;
}

template <typename T>
std::vector<T> Comm::allgatherv(std::span<const T> local) {
  // Per-rank counts legitimately differ; only kind and element type match.
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "allgatherv");
  obs_span.set_args(local.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllGatherV,
                  .count = CollectiveDesc::kAnyCount,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name()});
  const int p = size();
  std::vector<std::vector<T>> blocks(static_cast<std::size_t>(p));
  blocks[static_cast<std::size_t>(rank_)].assign(local.begin(), local.end());
  if (p > 1) {
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    // Pass blocks around the ring: at step s, forward the block that
    // originated at rank (rank − s) and receive the one from (rank − s − 1).
    for (int s = 0; s < p - 1; ++s) {
      const int send_origin = (rank_ - s + p) % p;
      const int recv_origin = (rank_ - s - 1 + p) % p;
      csend<T>(right,
               std::span<const T>(blocks[static_cast<std::size_t>(send_origin)]),
               Coll::AllGather, s);
      blocks[static_cast<std::size_t>(recv_origin)] =
          crecv<T>(left, Coll::AllGather, s);
    }
  }
  std::vector<T> out;
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.size();
  out.reserve(total);
  for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
  return out;
}

template <typename T, typename Op>
void Comm::allreduce(std::span<T> data, Op op, AllReduceAlgo algo) {
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "allreduce");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::AllReduce,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name(),
                  .algo = static_cast<int>(algo)});
  if (size() == 1) return;
  switch (algo) {
    case AllReduceAlgo::Ring: allreduce_ring(data, op); return;
    case AllReduceAlgo::RecursiveDoubling:
      allreduce_recursive_doubling(data, op);
      return;
    case AllReduceAlgo::Rabenseifner:
      allreduce_rabenseifner(data, op);
      return;
  }
  MBD_CHECK(false);
}

template <typename T, typename Op>
void Comm::allreduce_ring(std::span<T> data, Op op) {
  const int p = size();
  const std::size_t n = data.size();
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  auto block = [&](int b) {
    b = ((b % p) + p) % p;
    return std::pair{block_lo(n, p, b), block_lo(n, p, b + 1)};
  };
  // Phase 1: reduce-scatter around the ring.
  for (int s = 0; s < p - 1; ++s) {
    const auto [slo, shi] = block(rank_ - s);
    const auto [rlo, rhi] = block(rank_ - s - 1);
    csend<T>(right, std::span<const T>(data.data() + slo, shi - slo),
             Coll::AllReduce, s);
    auto in = crecv<T>(left, Coll::AllReduce, s);
    MBD_CHECK_EQ(in.size(), rhi - rlo);
    for (std::size_t i = 0; i < in.size(); ++i)
      data[rlo + i] = op(data[rlo + i], in[i]);
  }
  // Phase 2: all-gather of the reduced blocks around the ring.
  for (int s = 0; s < p - 1; ++s) {
    const auto [slo, shi] = block(rank_ + 1 - s);
    const auto [rlo, rhi] = block(rank_ - s);
    csend<T>(right, std::span<const T>(data.data() + slo, shi - slo),
             Coll::AllReduce, p + s);
    auto in = crecv<T>(left, Coll::AllReduce, p + s);
    MBD_CHECK_EQ(in.size(), rhi - rlo);
    std::copy(in.begin(), in.end(), data.begin() + static_cast<std::ptrdiff_t>(rlo));
  }
}

template <typename T, typename Op>
void Comm::allreduce_recursive_doubling(std::span<T> data, Op op) {
  const int p = size();
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;
  // Fold the `rem` extra ranks into the first `rem` survivors (MPICH scheme):
  // among the first 2*rem ranks, odd ranks send to the even rank below and
  // drop out of the doubling phase.
  int vr;  // virtual rank within the power-of-two group, -1 if folded out
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      csend<T>(rank_ - 1, std::span<const T>(data), Coll::AllReduce, 100);
      vr = -1;
    } else {
      auto in = crecv<T>(rank_ + 1, Coll::AllReduce, 100);
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = op(data[i], in[i]);
      vr = rank_ / 2;
    }
  } else {
    vr = rank_ - rem;
  }
  if (vr >= 0) {
    for (int mask = 1, step = 0; mask < p2; mask <<= 1, ++step) {
      const int vpartner = vr ^ mask;
      const int partner = vpartner < rem ? vpartner * 2 : vpartner + rem;
      csend<T>(partner, std::span<const T>(data), Coll::AllReduce, 200 + step);
      auto in = crecv<T>(partner, Coll::AllReduce, 200 + step);
      MBD_CHECK_EQ(in.size(), data.size());
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = op(data[i], in[i]);
    }
  }
  // Ship the final result back to the folded-out ranks.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      csend<T>(rank_ + 1, std::span<const T>(data), Coll::AllReduce, 300);
    } else {
      auto in = crecv<T>(rank_ - 1, Coll::AllReduce, 300);
      std::copy(in.begin(), in.end(), data.begin());
    }
  }
}

template <typename T, typename Op>
void Comm::allreduce_rabenseifner(std::span<T> data, Op op) {
  // Rabenseifner's algorithm: recursive-halving reduce-scatter followed by a
  // recursive-doubling all-gather. Bandwidth matches the ring (2(P−1)/P·n per
  // process) with only 2⌈log₂P⌉ latency steps. Non-power-of-two counts fold
  // the extra ranks in and out as in allreduce_recursive_doubling.
  const int p = size();
  const std::size_t n = data.size();
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;
  int vr;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      csend<T>(rank_ - 1, std::span<const T>(data), Coll::AllReduce, 400);
      vr = -1;
    } else {
      auto in = crecv<T>(rank_ + 1, Coll::AllReduce, 400);
      for (std::size_t i = 0; i < n; ++i) data[i] = op(data[i], in[i]);
      vr = rank_ / 2;
    }
  } else {
    vr = rank_ - rem;
  }
  auto real_rank = [&](int v) { return v < rem ? v * 2 : v + rem; };
  auto block = [&](int b) {
    return std::pair{block_lo(n, p2, b), block_lo(n, p2, b + 1)};
  };
  if (vr >= 0) {
    // Recursive halving: shrink the owned block range [blo, bhi) toward the
    // single block vr, exchanging the complementary half with the partner.
    int blo = 0, bhi = p2, step = 0;
    for (int mask = p2 / 2; mask >= 1; mask >>= 1, ++step) {
      const int partner = vr ^ mask;
      const int mid = (blo + bhi) / 2;
      int keep_lo, keep_hi, send_lo, send_hi;
      if ((vr & mask) == 0) {
        keep_lo = blo; keep_hi = mid; send_lo = mid; send_hi = bhi;
      } else {
        keep_lo = mid; keep_hi = bhi; send_lo = blo; send_hi = mid;
      }
      const std::size_t slo = block(send_lo).first;
      const std::size_t shi = block(send_hi - 1).second;
      csend<T>(real_rank(partner),
               std::span<const T>(data.data() + slo, shi - slo),
               Coll::AllReduce, 410 + step);
      auto in = crecv<T>(real_rank(partner), Coll::AllReduce, 410 + step);
      const std::size_t klo = block(keep_lo).first;
      MBD_CHECK_EQ(in.size(), block(keep_hi - 1).second - klo);
      for (std::size_t i = 0; i < in.size(); ++i)
        data[klo + i] = op(data[klo + i], in[i]);
      blo = keep_lo;
      bhi = keep_hi;
    }
    MBD_CHECK_EQ(blo, vr);
    MBD_CHECK_EQ(bhi, vr + 1);
    // Recursive doubling all-gather: grow the owned range back to [0, p2).
    for (int mask = 1; mask < p2; mask <<= 1, ++step) {
      const int partner = vr ^ mask;
      // Current owned range: the aligned window of width `mask` around vr.
      const int own_lo = (vr / mask) * mask;
      const int own_hi = own_lo + mask;
      const int partner_lo = (partner / mask) * mask;
      const std::size_t olo = block(own_lo).first;
      const std::size_t ohi = block(own_hi - 1).second;
      csend<T>(real_rank(partner),
               std::span<const T>(data.data() + olo, ohi - olo),
               Coll::AllReduce, 430 + step);
      auto in = crecv<T>(real_rank(partner), Coll::AllReduce, 430 + step);
      const std::size_t plo = block(partner_lo).first;
      MBD_CHECK_EQ(in.size(), block(partner_lo + mask - 1).second - plo);
      std::copy(in.begin(), in.end(),
                data.begin() + static_cast<std::ptrdiff_t>(plo));
    }
  }
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      csend<T>(rank_ + 1, std::span<const T>(data), Coll::AllReduce, 450);
    } else {
      auto in = crecv<T>(rank_ - 1, Coll::AllReduce, 450);
      std::copy(in.begin(), in.end(), data.begin());
    }
  }
}

template <typename T, typename Op>
std::vector<T> Comm::reduce_scatter(std::span<const T> data, Op op) {
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "reduce_scatter");
  obs_span.set_args(data.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::ReduceScatter,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name()});
  const int p = size();
  const std::size_t n = data.size();
  std::vector<T> work(data.begin(), data.end());
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  auto block = [&](int b) {
    b = ((b % p) + p) % p;
    return std::pair{block_lo(n, p, b), block_lo(n, p, b + 1)};
  };
  // Ring schedule offset so that after P-1 steps rank r owns the fully
  // reduced canonical block r (send block r-s-1, accumulate block r-s-2).
  for (int s = 0; s < p - 1; ++s) {
    const auto [slo, shi] = block(rank_ - s - 1);
    const auto [rlo, rhi] = block(rank_ - s - 2);
    csend<T>(right, std::span<const T>(work.data() + slo, shi - slo),
             Coll::ReduceScatter, s);
    auto in = crecv<T>(left, Coll::ReduceScatter, s);
    MBD_CHECK_EQ(in.size(), rhi - rlo);
    for (std::size_t i = 0; i < in.size(); ++i)
      work[rlo + i] = op(work[rlo + i], in[i]);
  }
  const auto [mlo, mhi] = block(rank_);
  return {work.begin() + static_cast<std::ptrdiff_t>(mlo),
          work.begin() + static_cast<std::ptrdiff_t>(mhi)};
}

template <typename T>
std::vector<T> Comm::gather(std::span<const T> local, int root) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  // Linear gather concatenates whatever each rank offers; sizes may differ.
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "gather");
  obs_span.set_args(local.size() * sizeof(T), 0);
  validate_entry({.kind = OpKind::Gather,
                  .count = CollectiveDesc::kAnyCount,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .root = root});
  if (rank_ != root) {
    csend<T>(root, local, Coll::Gather, 0);
    return {};
  }
  std::vector<T> out;
  for (int r = 0; r < p; ++r) {
    if (r == rank_) {
      out.insert(out.end(), local.begin(), local.end());
    } else {
      auto in = crecv<T>(r, Coll::Gather, 0);
      out.insert(out.end(), in.begin(), in.end());
    }
  }
  return out;
}

template <typename T>
std::vector<T> Comm::scatter(std::span<const T> all, int root,
                             std::size_t chunk) {
  const int p = size();
  MBD_CHECK(root >= 0 && root < p);
  obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "scatter");
  obs_span.set_args(chunk * sizeof(T), 0);
  validate_entry({.kind = OpKind::Scatter,
                  .count = chunk,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .root = root});
  if (rank_ == root) {
    MBD_CHECK_EQ(all.size(), chunk * static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      if (r == rank_) continue;
      csend<T>(r, all.subspan(static_cast<std::size_t>(r) * chunk, chunk),
               Coll::Scatter, 0);
    }
    auto mine = all.subspan(static_cast<std::size_t>(rank_) * chunk, chunk);
    return {mine.begin(), mine.end()};
  }
  return crecv<T>(root, Coll::Scatter, 0);
}

// ---------------------------------------------------------------------------
// Nonblocking operation state machines.
//
// Each op is the corresponding blocking algorithm unrolled into a resumable
// loop: a step posts its send once (`sent_` latches across advance() calls)
// and then either polls or blocks for the matching receive. The schedules,
// block math, and reduction order are copied from the blocking versions
// above so byte counts and floating-point results are identical.
// ---------------------------------------------------------------------------

namespace detail {

template <typename T, typename Op>
class IAllReduceOp final : public PendingOp {
 public:
  IAllReduceOp(Comm comm, std::span<T> data, Op op, int tag_base,
               std::uint64_t op_base)
      : comm_(std::move(comm)),
        data_(data),
        op_(op),
        tag_base_(tag_base),
        op_base_(op_base) {}

  bool advance(Drive drive) override {
    const int p = comm_.size();
    const int rank = comm_.rank();
    const std::size_t n = data_.size();
    const int right = (rank + 1) % p;
    const int left = (rank - 1 + p) % p;
    auto block = [&](int b) {
      b = ((b % p) + p) % p;
      return std::pair{Comm::block_lo(n, p, b), Comm::block_lo(n, p, b + 1)};
    };
    // Steps 0..p-2: reduce-scatter phase; steps p-1..2p-3: all-gather phase.
    const int total = 2 * (p - 1);
    while (step_ < total) {
      const bool reduce_phase = step_ < p - 1;
      const int s = reduce_phase ? step_ : step_ - (p - 1);
      const auto [slo, shi] = reduce_phase ? block(rank - s)
                                           : block(rank + 1 - s);
      const auto [rlo, rhi] = reduce_phase ? block(rank - s - 1)
                                           : block(rank - s);
      if (!sent_) {
        NbAccess::send(comm_, right,
                       NbAccess::bytes(std::span<const T>(data_.data() + slo,
                                                          shi - slo)),
                       tag_base_ + step_, Coll::AllReduce,
                       op_base_ == 0
                           ? 0
                           : op_base_ + static_cast<std::uint64_t>(step_));
        sent_ = true;
      }
      if (drive == Drive::Post) return false;
      std::vector<std::byte> raw;
      if (drive == Drive::Block) {
        raw = NbAccess::recv(comm_, left, tag_base_ + step_);
      } else if (!NbAccess::try_recv(comm_, left, tag_base_ + step_, raw)) {
        return false;
      }
      auto in = NbAccess::typed<T>(std::move(raw));
      MBD_CHECK_EQ(in.size(), rhi - rlo);
      if (reduce_phase) {
        for (std::size_t i = 0; i < in.size(); ++i)
          data_[rlo + i] = op_(data_[rlo + i], in[i]);
      } else {
        std::copy(in.begin(), in.end(),
                  data_.begin() + static_cast<std::ptrdiff_t>(rlo));
      }
      sent_ = false;
      ++step_;
    }
    return true;
  }

 private:
  Comm comm_;
  std::span<T> data_;
  Op op_;
  int tag_base_;
  std::uint64_t op_base_;  // first reserved injector op identity (0 = none)
  int step_ = 0;
  bool sent_ = false;
};

template <typename T>
class IAllGatherOp final : public PendingOp {
 public:
  IAllGatherOp(Comm comm, std::span<T> out, std::size_t m, int tag_base,
               std::uint64_t op_base)
      : comm_(std::move(comm)),
        out_(out),
        m_(m),
        tag_base_(tag_base),
        op_base_(op_base) {}

  bool advance(Drive drive) override {
    const int p = comm_.size();
    const int rank = comm_.rank();
    const int right = (rank + 1) % p;
    const int left = (rank - 1 + p) % p;
    while (step_ < p - 1) {
      const int send_block = (rank - step_ + p) % p;
      const int recv_block = (rank - step_ - 1 + p) % p;
      if (!sent_) {
        NbAccess::send(
            comm_, right,
            NbAccess::bytes(std::span<const T>(
                out_.data() + static_cast<std::size_t>(send_block) * m_, m_)),
            tag_base_ + step_, Coll::AllGather,
            op_base_ == 0 ? 0
                          : op_base_ + static_cast<std::uint64_t>(step_));
        sent_ = true;
      }
      if (drive == Drive::Post) return false;
      std::vector<std::byte> raw;
      if (drive == Drive::Block) {
        raw = NbAccess::recv(comm_, left, tag_base_ + step_);
      } else if (!NbAccess::try_recv(comm_, left, tag_base_ + step_, raw)) {
        return false;
      }
      auto in = NbAccess::typed<T>(std::move(raw));
      MBD_CHECK_EQ(in.size(), m_);
      std::copy(in.begin(), in.end(),
                out_.begin() + static_cast<std::ptrdiff_t>(recv_block) *
                                   static_cast<std::ptrdiff_t>(m_));
      sent_ = false;
      ++step_;
    }
    return true;
  }

 private:
  Comm comm_;
  std::span<T> out_;
  std::size_t m_;
  int tag_base_;
  std::uint64_t op_base_;  // first reserved injector op identity (0 = none)
  int step_ = 0;
  bool sent_ = false;
};

template <typename T>
class IAllGatherVOp final : public PendingOp {
 public:
  IAllGatherVOp(Comm comm, std::span<const T> local, std::vector<T>* out,
                int tag_base, std::uint64_t op_base)
      : comm_(std::move(comm)),
        blocks_(static_cast<std::size_t>(comm_.size())),
        out_(out),
        tag_base_(tag_base),
        op_base_(op_base) {
    blocks_[static_cast<std::size_t>(comm_.rank())].assign(local.begin(),
                                                           local.end());
  }

  bool advance(Drive drive) override {
    const int p = comm_.size();
    const int rank = comm_.rank();
    const int right = (rank + 1) % p;
    const int left = (rank - 1 + p) % p;
    while (step_ < p - 1) {
      const int send_origin = (rank - step_ + p) % p;
      const int recv_origin = (rank - step_ - 1 + p) % p;
      if (!sent_) {
        NbAccess::send(comm_, right,
                       NbAccess::bytes(std::span<const T>(
                           blocks_[static_cast<std::size_t>(send_origin)])),
                       tag_base_ + step_, Coll::AllGather,
                       op_base_ == 0
                           ? 0
                           : op_base_ + static_cast<std::uint64_t>(step_));
        sent_ = true;
      }
      if (drive == Drive::Post) return false;
      std::vector<std::byte> raw;
      if (drive == Drive::Block) {
        raw = NbAccess::recv(comm_, left, tag_base_ + step_);
      } else if (!NbAccess::try_recv(comm_, left, tag_base_ + step_, raw)) {
        return false;
      }
      blocks_[static_cast<std::size_t>(recv_origin)] =
          NbAccess::typed<T>(std::move(raw));
      sent_ = false;
      ++step_;
    }
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size();
    out_->clear();
    out_->reserve(total);
    for (const auto& b : blocks_) out_->insert(out_->end(), b.begin(), b.end());
    return true;
  }

 private:
  Comm comm_;
  std::vector<std::vector<T>> blocks_;
  std::vector<T>* out_;
  int tag_base_;
  std::uint64_t op_base_;  // first reserved injector op identity (0 = none)
  int step_ = 0;
  bool sent_ = false;
};

// The pending-receive half of isendrecv (the send is buffered at initiation).
template <typename T>
class IRecvOp final : public PendingOp {
 public:
  IRecvOp(Comm comm, int src, int tag, std::vector<T>* out)
      : comm_(std::move(comm)), src_(src), tag_(tag), out_(out) {}

  bool advance(Drive drive) override {
    // The send half was buffered at initiation; nothing to post here.
    if (drive == Drive::Post) return false;
    std::vector<std::byte> raw;
    if (drive == Drive::Block) {
      raw = NbAccess::recv(comm_, src_, tag_);
    } else if (!NbAccess::try_recv(comm_, src_, tag_, raw)) {
      return false;
    }
    *out_ = NbAccess::typed<T>(std::move(raw));
    return true;
  }

 private:
  Comm comm_;
  int src_;
  int tag_;
  std::vector<T>* out_;
};

}  // namespace detail

template <typename T, typename Op>
CollectiveHandle Comm::iallreduce(std::span<T> data, Op op) {
  validate_entry({.kind = OpKind::AllReduce,
                  .count = data.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .reduce_op = typeid(Op).name(),
                  .algo = static_cast<int>(AllReduceAlgo::Ring),
                  .nonblocking = true});
  if (size() == 1) return {};
  const int tag_base = nb_tag_block();
  const std::uint64_t op_base =
      reserve_nb_ops(2 * static_cast<std::uint64_t>(size() - 1));
  return make_handle(std::make_unique<detail::IAllReduceOp<T, Op>>(
                         *this, data, op, tag_base, op_base),
                     "iallreduce",
                     "iallreduce(count=" + std::to_string(data.size()) + ')');
}

template <typename T>
CollectiveHandle Comm::iallgather(std::span<const T> local, std::span<T> out) {
  validate_entry({.kind = OpKind::AllGather,
                  .count = local.size(),
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .algo = static_cast<int>(AllGatherAlgo::Ring),
                  .nonblocking = true});
  const std::size_t m = local.size();
  MBD_CHECK_EQ(out.size(), m * static_cast<std::size_t>(size()));
  std::copy(local.begin(), local.end(),
            out.begin() + static_cast<std::ptrdiff_t>(rank_) *
                              static_cast<std::ptrdiff_t>(m));
  if (size() == 1) return {};
  const int tag_base = nb_tag_block();
  const std::uint64_t op_base =
      reserve_nb_ops(static_cast<std::uint64_t>(size() - 1));
  return make_handle(std::make_unique<detail::IAllGatherOp<T>>(
                         *this, out, m, tag_base, op_base),
                     "iallgather", "iallgather(count=" + std::to_string(m) + ')');
}

template <typename T>
CollectiveHandle Comm::iallgatherv(std::span<const T> local,
                                   std::vector<T>* out) {
  MBD_CHECK(out != nullptr);
  validate_entry({.kind = OpKind::AllGatherV,
                  .count = CollectiveDesc::kAnyCount,
                  .elem_size = sizeof(T),
                  .elem_type = typeid(T).name(),
                  .nonblocking = true});
  if (size() == 1) {
    out->assign(local.begin(), local.end());
    return {};
  }
  const int tag_base = nb_tag_block();
  const std::uint64_t op_base =
      reserve_nb_ops(static_cast<std::uint64_t>(size() - 1));
  return make_handle(std::make_unique<detail::IAllGatherVOp<T>>(
                         *this, local, out, tag_base, op_base),
                     "iallgatherv",
                     "iallgatherv(local_count=" + std::to_string(local.size()) +
                         ')');
}

template <typename T>
CollectiveHandle Comm::isendrecv(int dst, std::span<const T> send_data,
                                 int src, std::vector<T>* recv_out, int tag) {
  MBD_CHECK(recv_out != nullptr);
  MBD_CHECK_MSG(tag >= 0 && tag < kInternalTagBase,
                "isendrecv tag " << tag << " outside the user tag space");
  send_bytes(dst, as_bytes_span(send_data), tag, Coll::PointToPoint);
  return make_handle(
      std::make_unique<detail::IRecvOp<T>>(*this, src, tag, recv_out),
      "isendrecv",
      "isendrecv(from=" + std::to_string(global_rank(src)) +
          ", tag=" + std::to_string(tag) + ')');
}

}  // namespace mbd::comm
