#include "mbd/comm/comm.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace mbd::comm {
namespace {

// SplitMix64-style mix used to derive child communicator contexts. Contexts
// only need to be distinct with overwhelming probability; they are never
// inverted.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Comm::Comm(std::shared_ptr<detail::Fabric> fabric, std::uint64_t context,
           std::shared_ptr<const std::vector<int>> members, int rank)
    : fabric_(std::move(fabric)),
      context_(context),
      members_(std::move(members)),
      rank_(rank) {
  MBD_CHECK(fabric_ != nullptr);
  MBD_CHECK(members_ != nullptr && !members_->empty());
  MBD_CHECK(rank_ >= 0 && rank_ < static_cast<int>(members_->size()));
}

int Comm::global_rank(int comm_rank) const {
  MBD_CHECK_MSG(comm_rank >= 0 && comm_rank < size(),
                "rank " << comm_rank << " out of range for communicator of size "
                        << size());
  return (*members_)[static_cast<std::size_t>(comm_rank)];
}

void Comm::validate_entry(const CollectiveDesc& desc) {
  if (Validator* v = fabric_->validator.get()) {
    v->on_enter(context_, rank_, global_rank(rank_), size(), desc);
  }
  if (ScheduleRecording* rec = fabric_->recorder.get()) {
    ScheduleEvent ev;
    ev.kind = ScheduleEventKind::CollEnter;
    ev.context = context_;
    ev.comm_rank = rank_;
    ev.comm_size = size();
    ev.desc = desc;
    rec->ranks[static_cast<std::size_t>(global_rank(rank_))].events.push_back(
        std::move(ev));
  }
}

void Comm::send_bytes(int dst, std::span<const std::byte> data, int tag,
                      Coll c, std::uint64_t reserved_op) {
  MBD_CHECK_MSG(dst != rank_, "self-send is not supported");
  if (fabric_->poisoned.load(std::memory_order_acquire)) {
    throw PoisonedError("mbd::comm fabric poisoned: another rank threw");
  }
  const int gme = global_rank(rank_);
  const int gdst = global_rank(dst);
  FaultInjector* fi = fabric_->injector.get();
  // One transport op per send: the injector counts it, fires crash/slow
  // actions pinned to this op index, and releases due deferred deliveries.
  // A nonblocking ring-round send instead carries the op identity reserved
  // at initiation: the counter already advanced then, and faults match the
  // reserved identity exactly.
  if (fi != nullptr) {
    if (reserved_op != 0) {
      fi->on_reserved_op(gme, reserved_op, *fabric_->transport);
    } else {
      fi->on_op(gme, *fabric_->transport);
    }
  }
  if (Validator* v = fabric_->validator.get(); v != nullptr && c == Coll::PointToPoint) {
    std::ostringstream os;
    os << "send(to=" << gdst << ", tag=" << tag
       << ", bytes=" << data.size() << ')';
    v->on_p2p(gme, os.str());
  }
  fabric_->counters.record(c, data.size());
  if (ScheduleRecording* rec = fabric_->recorder.get()) {
    ScheduleEvent ev;
    ev.kind = ScheduleEventKind::Send;
    ev.context = context_;
    ev.peer = gdst;
    ev.tag = tag;
    ev.bytes = data.size();
    ev.coll = c;
    rec->ranks[static_cast<std::size_t>(gme)].events.push_back(std::move(ev));
  }
  Message msg;
  msg.context = context_;
  msg.source = gme;
  msg.tag = tag;
  msg.payload.assign(data.begin(), data.end());
  if (fi != nullptr) {
    msg.seq = fi->assign_seq(context_, gme, gdst, tag);
    if (reserved_op != 0) {
      fi->deliver(*fabric_->transport, gme, gdst, std::move(msg), reserved_op);
    } else {
      fi->deliver(*fabric_->transport, gme, gdst, std::move(msg));
    }
  } else {
    fabric_->transport->deposit(gdst, std::move(msg));
  }
}

std::uint64_t Comm::reserve_nb_ops(std::uint64_t rounds) {
  FaultInjector* fi = fabric_->injector.get();
  if (fi == nullptr || rounds == 0) return 0;
  return fi->reserve_ops(global_rank(rank_), rounds);
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag, bool counted) {
  const int gsrc = global_rank(src);
  const int gme = global_rank(rank_);
  Validator* v = fabric_->validator.get();
  FaultInjector* fi = fabric_->injector.get();
  // A blocking recv is a transport op like a send (crash points land on
  // receives too). Nonblocking test() polls and nonblocking Block receives
  // are deliberately not counted: their occurrence is timing-dependent
  // (a round may complete via either path), which would break op-sequence
  // determinism.
  if (fi != nullptr && counted) fi->on_op(gme, *fabric_->transport);
  Message msg;
  if (v != nullptr || fi != nullptr) {
    if (v != nullptr && tag < kInternalTagBase) {
      std::ostringstream os;
      os << "recv(from=" << gsrc << ", tag=" << tag << ')';
      v->on_p2p(gme, os.str());
    }
    // Watchdog: a receive blocked past the validator timeout throws a
    // probable-deadlock report instead of hanging the test run — naming the
    // injected fault when one is responsible. The retry hook is the ack/
    // retransmission path for injected drops: every retry_interval the
    // injector re-deposits anything swallowed or deferred for this rank.
    PopWatch watch;
    if (v != nullptr) {
      watch.timeout = v->timeout();
      watch.report = [v, fi, gme, this, gsrc, tag] {
        std::string r = v->deadlock_report(gme, context_, gsrc, tag);
        if (fi != nullptr) r += fi->attribution_note();
        return r;
      };
    }
    if (fi != nullptr) {
      watch.retry_interval = fi->retry_interval();
      // Two recovery paths per retry tick: the local injector flushes what
      // *this* process swallowed/deferred for us, and the transport asks the
      // remote peers (a wire RetryRequest; no-op in-process) to do the same.
      watch.on_retry = [this, fi, gme] {
        fi->retry_deliver(*fabric_->transport, gme);
        fabric_->transport->request_retransmit(gme);
      };
    }
    msg = fabric_->mailboxes[static_cast<std::size_t>(gme)].pop(context_, gsrc,
                                                                tag, &watch);
  } else {
    msg = fabric_->mailboxes[static_cast<std::size_t>(gme)].pop(context_, gsrc,
                                                                tag);
  }
  record_recv(gme, gsrc, tag, msg.payload.size());
  return std::move(msg.payload);
}

void Comm::record_recv(int gme, int gsrc, int tag, std::size_t bytes) {
  if (ScheduleRecording* rec = fabric_->recorder.get()) {
    ScheduleEvent ev;
    ev.kind = ScheduleEventKind::Recv;
    ev.context = context_;
    ev.peer = gsrc;
    ev.tag = tag;
    ev.bytes = bytes;
    rec->ranks[static_cast<std::size_t>(gme)].events.push_back(std::move(ev));
  }
}

void Comm::mark_engine_step(std::size_t iteration) {
  if (ScheduleRecording* rec = fabric_->recorder.get()) {
    ScheduleEvent ev;
    ev.kind = ScheduleEventKind::StepEnd;
    ev.token = iteration;
    rec->ranks[static_cast<std::size_t>(global_rank(rank_))]
        .events.push_back(std::move(ev));
  }
}

bool Comm::try_recv_bytes(int src, int tag, std::vector<std::byte>& out) {
  const int gsrc = global_rank(src);
  const int gme = global_rank(rank_);
  Message msg;
  if (!fabric_->mailboxes[static_cast<std::size_t>(gme)].try_pop(context_,
                                                                 gsrc, tag,
                                                                 msg)) {
    return false;
  }
  record_recv(gme, gsrc, tag, msg.payload.size());
  out = std::move(msg.payload);
  return true;
}

CollectiveHandle Comm::make_handle(std::unique_ptr<detail::PendingOp> op,
                                   const char* op_name, std::string what) {
  if (ScheduleRecording* rec = fabric_->recorder.get()) {
    const int gme = global_rank(rank_);
    auto& log = rec->ranks[static_cast<std::size_t>(gme)];
    op->recorder = rec;
    op->rec_rank = gme;
    op->rec_token = log.next_nb_token++;
    ScheduleEvent ev;
    ev.kind = ScheduleEventKind::NbPost;
    ev.context = context_;
    ev.token = op->rec_token;
    ev.what = what;  // copy: the validator takes ownership below
    log.events.push_back(std::move(ev));
  }
  if (Validator* v = fabric_->validator.get()) {
    op->validator = v;
    op->global_rank = global_rank(rank_);
    op->nb_token = v->on_nb_initiated(op->global_rank, std::move(what));
  }
  // The CollPost span covers initiation (round-0 sends); its flow id is
  // echoed by the CollWait/NbDrain span that later completes the op, which
  // the Chrome-trace exporter turns into an arrow across the timeline.
  obs::ScopedSpan obs_span(obs::SpanKind::CollPost, op_name);
  op->obs_what = op_name;
  if (obs_span.active()) {
    op->obs_flow = obs::next_flow_id();
    obs_span.set_flow(op->obs_flow);
  }
  CollectiveHandle h(std::move(op));
  // Post round 0 only — never consume here. Buffered sends keep peers from
  // stalling while this rank computes, and deferring every receive to
  // test()/wait() keeps the Recv positions in a recorded trace at
  // deterministic program points (replay_trace depends on that order).
  // Single-rank schedules have no rounds and complete at initiation.
  if (h.op_->advance(detail::Drive::Post)) h.finish();
  return h;
}

void Comm::annotate_compute(double seconds) {
  MBD_CHECK(seconds >= 0.0);
  if (ScheduleRecording* rec = fabric_->recorder.get()) {
    ScheduleEvent ev;
    ev.kind = ScheduleEventKind::Compute;
    ev.seconds = seconds;
    rec->ranks[static_cast<std::size_t>(global_rank(rank_))]
        .events.push_back(std::move(ev));
  }
}

void Comm::barrier() {
  const obs::ScopedSpan obs_span(obs::SpanKind::CollWait, "barrier");
  validate_entry({.kind = OpKind::Barrier});
  const int p = size();
  const std::byte token{0};
  for (int k = 1, step = 0; k < p; k <<= 1, ++step) {
    const int dst = (rank_ + k) % p;
    const int src = (rank_ - k + p) % p;
    send_bytes(dst, std::span<const std::byte>(&token, 1),
               internal_tag(Coll::Barrier, step), Coll::Barrier);
    (void)recv_bytes(src, internal_tag(Coll::Barrier, step));
  }
}

Comm Comm::split(int color, int key) {
  // Color and key legitimately differ across ranks; only the fact that every
  // rank entered split() is validated (the inner allgather re-validates).
  validate_entry({.kind = OpKind::Split});
  // Gather (color, key, parent_rank) from everyone, then carve out the group.
  struct Entry {
    int color, key, parent_rank;
  };
  const Entry mine{color, key, rank_};
  const auto all = allgather(std::span<const Entry>(&mine, 1));
  std::vector<Entry> group;
  group.reserve(all.size());
  for (const auto& e : all)
    if (e.color == color) group.push_back(e);
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });
  auto members = std::make_shared<std::vector<int>>();
  members->reserve(group.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    members->push_back(global_rank(group[i].parent_rank));
    if (group[i].parent_rank == rank_) my_new_rank = static_cast<int>(i);
  }
  MBD_CHECK(my_new_rank >= 0);
  const std::uint64_t child_context =
      mix(mix(context_, static_cast<std::uint64_t>(split_seq_)),
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(color)) + 1);
  ++split_seq_;
  return Comm(fabric_, child_context, std::move(members), my_new_rank);
}

}  // namespace mbd::comm
