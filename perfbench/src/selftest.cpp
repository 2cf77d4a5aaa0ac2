// Self-tests of the benchmark: planted wrong losses, logits and bytes must
// be counted as failed operations, and the TimedStage decorator must leave
// losses and parameters bitwise equal to the undecorated run.
//
//   OMP_NUM_THREADS=1 perfbench_selftest      (or: python3 run.py --selftest)
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "mbd/nn/models.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

void planted_losses() {
  using perfbench::failed_steps;
  const std::vector<double> ref = {2.5, 2.4, 2.3};
  std::vector<double> good = {2.5, 2.4 + 1e-5, 2.3, 2.1, 2.0};
  expect(failed_steps(good, ref, true) == 0, "matching losses pass");
  std::vector<double> wrong = good;
  wrong[1] = 2.41;
  expect(failed_steps(wrong, ref, true) == 1, "a planted wrong loss fails its step");
  std::vector<double> nan = good;
  nan[4] = std::numeric_limits<double>::quiet_NaN();
  expect(failed_steps(nan, ref, true) == 1, "a non-finite loss fails its step");
  expect(failed_steps(good, ref, false) == good.size(),
         "wrong traffic fails every step of the episode");
}

void planted_logits() {
  using perfbench::classify_reply;
  using perfbench::ReplyOutcome;
  const std::vector<float> want = {0.25f, -1.5f, 3.0f};
  mbd::serve::Reply r;
  r.accepted = true;
  r.logits = want;
  expect(classify_reply(r, want, 0.001, 0.05) == ReplyOutcome::Ok,
         "bitwise-equal logits in time pass");
  r.logits[2] = std::nextafter(want[2], 4.0f);
  expect(classify_reply(r, want, 0.001, 0.05) == ReplyOutcome::WrongLogits,
         "logits one ulp off fail");
  r.logits = want;
  expect(classify_reply(r, want, 0.06, 0.05) == ReplyOutcome::Late,
         "a reply past the limit fails");
  mbd::serve::Reply rejected;
  rejected.reject_reason = "deadline";
  expect(classify_reply(rejected, want, 0.0, 0.05) == ReplyOutcome::Rejected,
         "a rejected request fails");
}

void planted_bytes() {
  using mbd::comm::Coll;
  mbd::comm::StatsSnapshot step, overhead;
  step.by_coll[static_cast<int>(Coll::AllReduce)] = {4096, 12};
  step.by_coll[static_cast<int>(Coll::AllGather)] = {2048, 6};
  step.by_coll[static_cast<int>(Coll::Gather)] = {24, 3};
  overhead.by_coll[static_cast<int>(Coll::Broadcast)] = {100, 4};
  mbd::costmodel::RankVolume closed;
  closed.allreduce_bytes = 4096;
  closed.allgather_bytes = 2048;
  expect(perfbench::matches_closed_form(step, closed), "closed-form bytes match");
  closed.p2p_bytes = 8;
  expect(!perfbench::matches_closed_form(step, closed),
         "a planted closed-form byte mismatch is caught");
  const mbd::comm::StatsSnapshot want = perfbench::episode_traffic(overhead, step, 5);
  expect(perfbench::same_traffic(want, perfbench::episode_traffic(overhead, step, 5)),
         "identical episode traffic passes");
  mbd::comm::StatsSnapshot extra = want;
  extra.by_coll[static_cast<int>(Coll::PointToPoint)].bytes += 1;
  expect(!perfbench::same_traffic(extra, want), "one extra byte is caught");
  expect(perfbench::failed_steps({1.0, 1.0}, {}, perfbench::same_traffic(extra, want)) == 2,
         "a byte mismatch fails the episode's steps");
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void decorator_is_transparent(const perfbench::TrainWorkload& w) {
  const mbd::nn::Dataset data =
      mbd::nn::make_synthetic_dataset(w.input_dim, w.classes, 4 * w.batch, 5);
  using perfbench::Timing;
  const auto plain = perfbench::run_train_episode(w, data, 3, Timing::Off);
  for (const Timing t : {Timing::Steps, Timing::Calls}) {
    const std::string mode = t == Timing::Steps ? "step-timed" : "call-timed";
    const auto timed = perfbench::run_train_episode(w, data, 3, t);
    expect(bitwise_equal(plain.losses, timed.losses),
           w.name + ": " + mode + " losses are bitwise equal");
    expect(bitwise_equal(plain.params, timed.params),
           w.name + ": " + mode + " params are bitwise equal");
    expect(!timed.clocks.empty() && timed.clocks[0].step_begin_ns.size() == 3,
           w.name + ": " + mode + " decorator saw every step");
  }
}

}  // namespace

int main() {
  if (perfbench::omp_threads() != 1) {
    std::cerr << "perfbench_selftest: run with OMP_NUM_THREADS=1\n";
    return 2;
  }
  std::cout << "host " << perfbench::host_stamp_json() << "\n";
  planted_losses();
  planted_logits();
  planted_bytes();

  // A smaller MLP on the same 1.5D layout keeps this quick.
  perfbench::TrainWorkload fc = perfbench::train_fc_15d();
  fc.specs = mbd::nn::mlp_spec({64, 48, 40, 10});
  fc.input_dim = 64;
  fc.classes = 10;
  fc.batch = 16;
  decorator_is_transparent(fc);
  decorator_is_transparent(perfbench::train_conv_hybrid());

  std::cout << (g_failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}
