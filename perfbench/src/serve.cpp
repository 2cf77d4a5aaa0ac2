// serve_open_loop: serve::Gateway over an integrated 2×1 layout, driven by
// one generator thread on a seeded open-loop schedule at a ladder of rates,
// with one collector thread waiting on the replies in FIFO order.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "checks.hpp"
#include "layers.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/nn/models.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/obs/metrics.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/serve/gateway.hpp"
#include "mbd/serve/inference.hpp"
#include "mbd/support/check.hpp"
#include "mbd/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nn = mbd::nn;
namespace parallel = mbd::parallel;
namespace serve = mbd::serve;
using mbd::tensor::Matrix;

namespace {

constexpr std::size_t kInputDim = 512;
constexpr std::size_t kClasses = 100;
constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kMaxBatch = 32;
/// The p99 latency limit, also the gateway's latency budget.
constexpr double kLimitS = 0.05;
/// Set-up-only episodes per run; setup_s is their median.
constexpr int kSetupEpisodes = 5;

/// The rate ladder: `lo` is mostly idle (a batch-1 forward takes 3-5 ms,
/// so under 10% of requests queue behind another and p90 stays a service
/// time), `hi` is past the batching knee (batch-1 serving would saturate
/// near 250/s) yet within what dynamic batching sustains. Share is the
/// fraction of --seconds a rung runs for.
struct Rung {
  double rate;
  double share;
};
constexpr Rung kRungs[] = {
    {25, 0.36}, {100, 0.08}, {200, 0.08}, {400, 0.08}, {800, 0.30}};
constexpr std::size_t kLo = 0;
constexpr std::size_t kHi = std::size(kRungs) - 1;
/// The ladder is climbed this many times, each rung for 1/kRounds of its
/// share, so every rung samples the whole run's host noise.
constexpr int kRounds = 10;

struct Request {
  double due_s;  ///< offset from the segment's start
  std::size_t sample;
};

/// One stretch of the open-loop schedule at one rung's rate.
struct Segment {
  std::size_t rung;
  std::vector<Request> requests;
};

struct RequestResult {
  double lag_s = 0;      ///< how late the generator submitted
  double latency_s = 0;  ///< due time to reply
  std::uint64_t submit_ns = 0;
  ReplyOutcome outcome = ReplyOutcome::Rejected;
  bool has_loss = false;  ///< the reply carried one logit per class
  double loss = 0;        ///< cross-entropy of the reply's logits
};

/// Each request's latency; a rejected request never meets the limit.
std::vector<double> latencies(std::span<const RequestResult> req) {
  std::vector<double> v;
  for (const RequestResult& r : req)
    v.push_back(r.outcome == ReplyOutcome::Rejected
                    ? std::numeric_limits<double>::infinity()
                    : r.latency_s);
  return v;
}

struct RungResult {
  double rate = 0, duration_s = 0;
  bool drained = true;  ///< every segment's last reply within the limit
  std::vector<RequestResult> req;
  std::vector<double> segment_p50_s;  ///< latency p50 of each segment

  std::size_t count(ReplyOutcome o) const {
    return static_cast<std::size_t>(std::count_if(
        req.begin(), req.end(),
        [o](const RequestResult& r) { return r.outcome == o; }));
  }
  /// Median over segments of the segment's latency p50: a host-load burst
  /// shorter than the run moves it less than the pooled p50.
  double p50_s() const { return median(segment_p50_s); }
  /// Meets the limit at p99 with nothing shed, and drains within the
  /// limit after each segment's last arrival (a growing backlog would not).
  bool sustained() const {
    if (req.empty() || count(ReplyOutcome::Ok) + count(ReplyOutcome::Late) !=
                           req.size())
      return false;
    return quantile(latencies(req), 0.99) <= kLimitS && drained;
  }
};

/// The request pool: each sample's input column, label, and logits of the
/// single-process forward that every reply must match bitwise.
struct Pool {
  std::vector<std::vector<float>> inputs, reference;
  std::vector<int> labels;
};

/// Poisson arrivals, uniformly drawn pool samples.
std::vector<Segment> make_schedule(std::uint64_t seed, double seconds) {
  mbd::Rng rng(seed);
  std::vector<Segment> out;
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t k = 0; k < std::size(kRungs); ++k) {
      const double duration = kRungs[k].share * seconds / kRounds;
      Segment seg{k, {}};
      for (double t = 0;;) {
        t += -std::log(1.0 - rng.uniform()) / kRungs[k].rate;
        if (t >= duration) break;
        seg.requests.push_back(
            {t, static_cast<std::size_t>(rng.uniform_index(kPoolSize))});
      }
      out.push_back(std::move(seg));
    }
  return out;
}

/// Rank 0's gateway, handed to the client thread once serve() starts, and
/// kept alive until the client's shutdown() call has returned (shutdown
/// still touches the gateway after serve() can return on rank 0).
class GatewayHandle {
 public:
  void publish(serve::Gateway* gw, std::uint64_t serve_ns) {
    const std::lock_guard lk(mu_);
    gw_ = gw;
    serve_ns_ = serve_ns;
    ready_ = true;
    cv_.notify_all();
  }
  /// Released with nullptr when the World failed before publishing.
  void abandon() { publish(nullptr, 0); }
  serve::Gateway* wait(std::uint64_t& serve_ns) {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return ready_; });
    serve_ns = serve_ns_;
    return gw_;
  }
  /// The client is done with the gateway.
  void retire() {
    const std::lock_guard lk(mu_);
    retired_ = true;
    cv_.notify_all();
  }
  void wait_retired() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return retired_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false, retired_ = false;
  serve::Gateway* gw_ = nullptr;
  std::uint64_t serve_ns_ = 0;
};

std::vector<float> column(const Matrix& m, std::size_t j) {
  const Matrix c = m.col_block(j, j + 1);
  return {c.span().begin(), c.span().end()};
}

double cross_entropy(const std::vector<float>& logits, int label) {
  const float mx = *std::max_element(logits.begin(), logits.end());
  double sum = 0;
  for (float v : logits) sum += std::exp(static_cast<double>(v - mx));
  const float at_label = logits[static_cast<std::size_t>(label)];
  return std::log(sum) - static_cast<double>(at_label - mx);
}

/// Submit one segment's schedule on time, collect every reply in FIFO
/// order on a second thread, and append the results to `out`.
void run_segment(serve::Gateway& gw, const std::vector<Request>& sched,
                 const Pool& pool, RungResult& out) {
  std::vector<RequestResult> results(sched.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<serve::Reply>>> pending;

  std::thread collector([&] {
    pin_thread(3);
    for (std::size_t n = 0; n < sched.size(); ++n) {
      std::pair<std::size_t, std::future<serve::Reply>> item;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return !pending.empty(); });
        item = std::move(pending.front());
        pending.pop_front();
      }
      serve::Reply reply;
      try {
        reply = item.second.get();
      } catch (const std::future_error&) {
        // A broken promise: the gateway died with the request queued.
      }
      const std::size_t sample = sched[item.first].sample;
      RequestResult& r = results[item.first];
      r.latency_s = r.lag_s + reply.latency_s;
      r.outcome = classify_reply(reply, pool.reference[sample], r.latency_s,
                                 kLimitS);
      r.has_loss = reply.accepted && reply.logits.size() == kClasses;
      if (r.has_loss) r.loss = cross_entropy(reply.logits, pool.labels[sample]);
    }
  });

  const std::uint64_t start = steady_ns() + 2'000'000;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto due = start + static_cast<std::uint64_t>(sched[i].due_s * 1e9);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    const std::uint64_t now = steady_ns();
    results[i].submit_ns = now;
    results[i].lag_s = now > due ? static_cast<double>(now - due) * 1e-9 : 0.0;
    std::future<serve::Reply> fut = gw.submit(pool.inputs[sched[i].sample]);
    {
      const std::lock_guard lk(mu);
      pending.emplace_back(i, std::move(fut));
    }
    cv.notify_one();
  }
  collector.join();
  if (results.empty()) return;
  if (results.back().latency_s > kLimitS) out.drained = false;
  out.segment_p50_s.push_back(quantile(latencies(results), 0.5));
  out.req.insert(out.req.end(), results.begin(), results.end());
}

struct ServeEpisode {
  double setup_s = 0;
  std::vector<RungResult> rungs;
  mbd::comm::StatsSnapshot traffic;
  std::vector<StageClock> clocks;
};

/// One World: build the session, start the gateway (which calibrates),
/// then run the segments and shut down. ep.rungs holds one aggregate per
/// rung of the ladder. `traced` decorates every stage with call timing.
ServeEpisode run_serve_episode(const std::vector<nn::LayerSpec>& specs,
                               const std::vector<Segment>& segments,
                               double seconds, const Pool& pool, bool traced) {
  const parallel::TrainerEntry* entry = parallel::find_trainer("integrated");
  MBD_CHECK(entry != nullptr);
  parallel::TrainerOptions opts;
  opts.grid = {2, 1};
  opts.seed = kWeightSeed;
  serve::GatewayOptions gopts;
  gopts.queue_capacity = 256;
  gopts.max_batch = kMaxBatch;
  gopts.latency_budget_s = kLimitS;

  ServeEpisode ep;
  if (traced) ep.clocks.resize(2);
  for (const Rung& k : kRungs) {
    ep.rungs.emplace_back();
    ep.rungs.back().rate = k.rate;
  }
  GatewayHandle handle;
  // Set-up is the session build plus gateway calibration.
  std::uint64_t built_ns = 0, calibrated_ns = 0, serve_ns = 0;
  std::exception_ptr client_error;

  std::thread client([&] {
    pin_thread(2);
    serve::Gateway* gw = handle.wait(serve_ns);
    if (gw == nullptr) return;
    try {
      while (gw->chosen_batch() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      calibrated_ns = steady_ns();
      for (const Segment& seg : segments) {
        RungResult& rr = ep.rungs[seg.rung];
        rr.duration_s += kRungs[seg.rung].share * seconds / kRounds;
        run_segment(*gw, seg.requests, pool, rr);
      }
    } catch (...) {
      client_error = std::current_exception();
    }
    gw->shutdown();
    handle.retire();
  });

  const std::uint64_t t0 = steady_ns();
  mbd::comm::World world(2);
  try {
    world.run([&](mbd::comm::Comm& c) {
      pin_thread(c.rank());
      parallel::EngineLayout layout = entry->layout(c, opts, specs, kMaxBatch);
      if (traced)
        wrap_stages(layout, ep.clocks[static_cast<std::size_t>(c.rank())],
                    Timing::Calls);
      serve::InferenceSession session(c, std::move(layout));
      if (c.rank() == 0) built_ns = steady_ns();
      serve::Gateway gw(session, c, gopts);
      if (c.rank() == 0) handle.publish(&gw, steady_ns());
      gw.serve();
      if (c.rank() == 0) handle.wait_retired();
    });
  } catch (...) {
    handle.abandon();
    client.join();
    throw;
  }
  client.join();
  if (client_error) std::rethrow_exception(client_error);
  ep.traffic = world.stats();
  ep.setup_s = static_cast<double>((built_ns - t0) + (calibrated_ns - serve_ns)) * 1e-9;
  return ep;
}

}  // namespace

Result run_serving(const RunOptions& o) {
  Result res;
  const std::vector<nn::LayerSpec> specs =
      nn::mlp_spec({kInputDim, 1024, 1024, 1024, kClasses});
  const nn::Dataset data =
      nn::make_synthetic_dataset(kInputDim, kClasses, kPoolSize, o.seed);
  const std::vector<Segment> sched = make_schedule(o.seed, o.seconds);

  // Single-process forward of the same weights: every reply must carry a
  // column of it bitwise (the session's output depends on neither the rank
  // split nor the batch composition).
  nn::Network net = nn::build_network(specs, {.seed = kWeightSeed});
  const Matrix logits = net.forward(data.inputs);
  Pool pool;
  pool.labels = data.labels;
  for (std::size_t j = 0; j < kPoolSize; ++j) {
    pool.inputs.push_back(column(data.inputs, j));
    pool.reference.push_back(column(logits, j));
  }

  auto account = [&](const ServeEpisode& ep) {
    for (const RungResult& rr : ep.rungs) {
      res.attempted += rr.req.size();
      res.failed += rr.req.size() - rr.count(ReplyOutcome::Ok);
      if (rr.count(ReplyOutcome::WrongLogits) > 0) res.correct = false;
    }
  };

  if (!o.trace) {
    std::vector<double> setups;
    for (int e = 0; e < kSetupEpisodes; ++e)
      setups.push_back(
          run_serve_episode(specs, {}, o.seconds, pool, false).setup_s);
    const ServeEpisode ep =
        run_serve_episode(specs, sched, o.seconds, pool, false);
    account(ep);
    setups.push_back(ep.setup_s);
    const RungResult& lo = ep.rungs[kLo];
    const RungResult& hi = ep.rungs[kHi];
    // Mean cross-entropy of the logits the lo replies carried; not finite,
    // so the run fails, when no lo request was answered.
    double loss = 0;
    std::size_t answered = 0;
    for (const RequestResult& r : lo.req)
      if (r.has_loss) {
        loss += r.loss;
        ++answered;
      }
    res.add("samples_per_s", "1/s",
            static_cast<double>(hi.count(ReplyOutcome::Ok)) / hi.duration_s);
    res.add("latency_ms_p50", "ms", lo.p50_s() * 1e3);
    res.add("loss_final", "nats", loss / static_cast<double>(answered));
    res.add("setup_s", "s", median(setups));
    return res;
  }

  // Traced run: an untraced lo rung as the overhead baseline, then the
  // whole ladder with the profiler on.
  std::vector<Segment> lo_only;
  for (const Segment& seg : sched)
    if (seg.rung == kLo) lo_only.push_back(seg);
  const ServeEpisode plain =
      run_serve_episode(specs, lo_only, o.seconds, pool, false);
  account(plain);
  mbd::obs::Metrics::instance().reset();
  mbd::obs::reset_timeline();
  mbd::obs::enable_profiling(true);
  const ServeEpisode ep =
      run_serve_episode(specs, sched, o.seconds, pool, true);
  mbd::obs::enable_profiling(false);
  account(ep);
  const mbd::obs::TimelineSnapshot snap = mbd::obs::snapshot_timeline();

  LayerReport l;
  TraceTotals totals;
  totals.add_clocks(ep.clocks);
  totals.add_timeline(snap);
  totals.fill(l);
  fill_traffic(l, ep.traffic, totals.steps());

  // Serve spans live on rank 0's thread: forward durations, and batch
  // starts for the queue wait of each accepted request. Admission is FIFO
  // and one thread submits, so the i-th accepted request in submit order
  // rides in the batch covering position i.
  std::vector<double> forward_ms, queue_wait_ms;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batches;  // t0, size
  for (const mbd::obs::ThreadTimeline& t : snap.threads) {
    if (t.rank != 0) continue;
    for (const mbd::obs::Span& s : t.spans) {
      if (s.kind != mbd::obs::SpanKind::Serve) continue;
      if (std::strcmp(s.label, "forward") == 0)
        forward_ms.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-6);
      else if (std::strcmp(s.label, "batch") == 0)
        batches.emplace_back(s.t0_ns, s.arg0);
      else if (std::strcmp(s.label, "calibrate") == 0)
        l.calibrate_s += static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
    }
  }
  std::sort(batches.begin(), batches.end());
  std::vector<std::uint64_t> submitted;
  for (const RungResult& rr : ep.rungs)
    for (const RequestResult& r : rr.req)
      if (r.outcome != ReplyOutcome::Rejected) submitted.push_back(r.submit_ns);
  std::sort(submitted.begin(), submitted.end());
  std::size_t b = 0, used = 0;
  for (const std::uint64_t t : submitted) {
    while (b < batches.size() && used == batches[b].second) {
      ++b;
      used = 0;
    }
    if (b == batches.size()) break;
    ++used;
    queue_wait_ms.push_back(
        (static_cast<double>(batches[b].first) - static_cast<double>(t)) * 1e-6);
  }
  l.forward_ms_p50 = median(forward_ms);
  l.queue_wait_ms_p99 = quantile(queue_wait_ms, 0.99);

  for (const mbd::obs::MetricValue& m : mbd::obs::Metrics::instance().snapshot()) {
    if (m.name == "serve.batch_size" && m.hist.count > 0)
      l.batch_size_mean = m.hist.sum / static_cast<double>(m.hist.count);
    else if (m.name == "serve.chosen_batch")
      l.chosen_batch = m.value;
    else if (m.name == "serve.rejected.queue_full")
      l.rejected_queue_full = m.value;
    else if (m.name == "serve.rejected.deadline")
      l.rejected_deadline = m.value;
  }
  if (l.chosen_batch > 0) l.batch_fill = l.batch_size_mean / l.chosen_batch;

  // The hi latencies cover the answered requests; shed ones are counted
  // by serve.rejected.* and keep max_rate_rps below hi.
  std::vector<double> hi_answered;
  for (const RequestResult& r : ep.rungs[kHi].req)
    if (r.outcome != ReplyOutcome::Rejected) hi_answered.push_back(r.latency_s);
  l.latency_ms_p50_hi = quantile(hi_answered, 0.5) * 1e3;
  l.latency_ms_p99_hi = quantile(hi_answered, 0.99) * 1e3;
  for (const RungResult& rr : ep.rungs) {
    if (rr.sustained()) l.max_rate_rps = std::max(l.max_rate_rps, rr.rate);
    for (const RequestResult& r : rr.req)
      l.lag_ms_max = std::max(l.lag_ms_max, r.lag_s * 1e3);
  }
  l.latency_ms_p90_lo = quantile(latencies(plain.rungs[kLo].req), 0.9) * 1e3;
  l.trace_overhead = ep.rungs[kLo].p50_s() / plain.rungs[kLo].p50_s();
  add_per_layer(res, l);
  return res;
}

}  // namespace perfbench
