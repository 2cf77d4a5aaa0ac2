// Nonblocking collectives: completed results must be bitwise equal to the
// blocking algorithms, traffic must be identical to the blocking ring (that
// identity is what lets the costmodel/volumes.hpp exact predictions hold
// in overlapped trainer mode), handles must complete in any order, and the
// validator must turn the two new failure modes — a blocking/nonblocking
// mode mismatch across ranks, and a CollectiveHandle that is never driven
// to completion — into named errors instead of hangs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "mbd/comm/world.hpp"

namespace mbd::comm {
namespace {

std::vector<float> rank_vector(int rank, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 0.25f * static_cast<float>(rank + 1) * static_cast<float>(i + 3) -
           static_cast<float>(rank);
  return v;
}

TEST(Nonblocking, IAllReduceBitwiseEqualsBlockingRing) {
  for (int p : {1, 2, 3, 4}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                          std::size_t{40}}) {
      World world(p);
      world.enable_validation();
      std::mutex mu;
      bool all_equal = true;
      world.run([&](Comm& c) {
        std::vector<float> blocking = rank_vector(c.rank(), n);
        std::vector<float> nonblocking = blocking;
        c.allreduce(std::span<float>(blocking), std::plus<float>{},
                    AllReduceAlgo::Ring);
        CollectiveHandle h =
            c.iallreduce(std::span<float>(nonblocking));
        h.wait();
        EXPECT_TRUE(h.done());
        std::lock_guard lock(mu);
        all_equal = all_equal && std::memcmp(blocking.data(),
                                             nonblocking.data(),
                                             n * sizeof(float)) == 0;
      });
      EXPECT_TRUE(all_equal) << "p=" << p << " n=" << n;
    }
  }
}

TEST(Nonblocking, IAllReduceTrafficEqualsBlockingRing) {
  const int p = 4;
  const std::size_t n = 10;
  auto run = [&](bool nonblocking) {
    World world(p);
    world.run([&](Comm& c) {
      std::vector<float> v = rank_vector(c.rank(), n);
      if (nonblocking) {
        c.iallreduce(std::span<float>(v)).wait();
      } else {
        c.allreduce(std::span<float>(v), std::plus<float>{},
                    AllReduceAlgo::Ring);
      }
    });
    return world.stats();
  };
  const auto blocking = run(false);
  const auto overlapped = run(true);
  EXPECT_EQ(blocking[Coll::AllReduce].bytes,
            overlapped[Coll::AllReduce].bytes);
  EXPECT_EQ(blocking[Coll::AllReduce].messages,
            overlapped[Coll::AllReduce].messages);
  EXPECT_EQ(overlapped.total_bytes(), overlapped[Coll::AllReduce].bytes)
      << "nonblocking all-reduce leaked traffic into another class";
}

TEST(Nonblocking, IAllGatherMatchesBlocking) {
  for (int p : {1, 2, 3, 5}) {
    World world(p);
    world.enable_validation();
    world.run([&](Comm& c) {
      const std::vector<float> local = rank_vector(c.rank(), 6);
      const std::vector<float> expected =
          c.allgather(std::span<const float>(local));
      std::vector<float> out(local.size() *
                             static_cast<std::size_t>(c.size()));
      c.iallgather(std::span<const float>(local), std::span<float>(out))
          .wait();
      EXPECT_EQ(expected, out) << "rank " << c.rank() << " p=" << p;
    });
  }
}

TEST(Nonblocking, IAllGatherVUnevenBlocks) {
  for (int p : {2, 3, 4}) {
    World world(p);
    world.enable_validation();
    world.run([&](Comm& c) {
      // Block sizes differ per rank — the case Bruck cannot handle.
      const std::vector<float> local =
          rank_vector(c.rank(), static_cast<std::size_t>(c.rank()) + 1);
      const std::vector<float> expected =
          c.allgatherv(std::span<const float>(local));
      std::vector<float> out;
      c.iallgatherv(std::span<const float>(local), &out).wait();
      EXPECT_EQ(expected, out) << "rank " << c.rank() << " p=" << p;
    });
  }
}

TEST(Nonblocking, ISendRecvMatchesBlockingSendrecv) {
  const int p = 3;
  World world(p);
  world.enable_validation();
  world.run([&](Comm& c) {
    const int dst = (c.rank() + 1) % c.size();
    const int src = (c.rank() + c.size() - 1) % c.size();
    const std::vector<float> payload = rank_vector(c.rank(), 5);
    const std::vector<float> expected = c.sendrecv(
        dst, std::span<const float>(payload), src, /*tag=*/11);
    std::vector<float> got;
    CollectiveHandle h = c.isendrecv(dst, std::span<const float>(payload),
                                     src, &got, /*tag=*/11);
    h.wait();
    EXPECT_EQ(expected, got) << "rank " << c.rank();
  });
}

TEST(Nonblocking, HandlesCompleteInAnyOrder) {
  const int p = 4;
  World world(p);
  world.enable_validation();
  world.run([&](Comm& c) {
    std::vector<float> a = rank_vector(c.rank(), 9);
    std::vector<float> b = rank_vector(c.rank() + 7, 4);
    std::vector<float> gathered;
    const std::vector<float> local = rank_vector(c.rank(), 3);
    CollectiveHandle h1 = c.iallreduce(std::span<float>(a));
    CollectiveHandle h2 = c.iallreduce(std::span<float>(b));
    CollectiveHandle h3 =
        c.iallgatherv(std::span<const float>(local), &gathered);
    // Complete in reverse initiation order: each op lives in its own tag
    // block, so rounds never cross-match.
    h3.wait();
    h2.wait();
    h1.wait();

    std::vector<float> a_ref = rank_vector(c.rank(), 9);
    std::vector<float> b_ref = rank_vector(c.rank() + 7, 4);
    c.allreduce(std::span<float>(a_ref), std::plus<float>{},
                AllReduceAlgo::Ring);
    c.allreduce(std::span<float>(b_ref), std::plus<float>{},
                AllReduceAlgo::Ring);
    EXPECT_EQ(a_ref, a);
    EXPECT_EQ(b_ref, b);
    EXPECT_EQ(c.allgatherv(std::span<const float>(local)), gathered);
  });
}

TEST(Nonblocking, TestPollsToCompletionAndProgressAllDrives) {
  const int p = 3;
  World world(p);
  world.enable_validation();
  world.run([&](Comm& c) {
    std::vector<float> a = rank_vector(c.rank(), 8);
    std::vector<float> b = rank_vector(c.rank(), 2);
    std::vector<CollectiveHandle> handles;
    handles.push_back(c.iallreduce(std::span<float>(a)));
    handles.push_back(c.iallreduce(std::span<float>(b)));
    while (!progress_all(std::span<CollectiveHandle>(handles))) {
    }
    EXPECT_TRUE(handles[0].done());
    EXPECT_TRUE(handles[1].done());
    std::vector<float> a_ref = rank_vector(c.rank(), 8);
    c.allreduce(std::span<float>(a_ref), std::plus<float>{},
                AllReduceAlgo::Ring);
    EXPECT_EQ(a_ref, a);
  });
}

TEST(Nonblocking, SingleRankCompletesImmediately) {
  World world(1);
  world.enable_validation();
  world.run([&](Comm& c) {
    std::vector<float> v{1.0f, 2.0f};
    CollectiveHandle h = c.iallreduce(std::span<float>(v));
    EXPECT_TRUE(h.done());
    std::vector<float> out;
    c.iallgatherv(std::span<const float>(v), &out).wait();
    EXPECT_EQ(v, out);
  });
}

TEST(Nonblocking, ModeMismatchIsNamedValidationError) {
  World world(2);
  world.enable_validation();
  try {
    world.run([&](Comm& c) {
      std::vector<float> v(4, 1.0f);
      if (c.rank() == 0) {
        c.iallreduce(std::span<float>(v)).wait();
      } else {
        c.allreduce(std::span<float>(v), std::plus<float>{},
                    AllReduceAlgo::Ring);
      }
    });
    FAIL() << "blocking/nonblocking mismatch was not detected";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("nonblocking"), std::string::npos)
        << "mismatch error does not mention the nonblocking flag: "
        << e.what();
  }
}

TEST(Nonblocking, LeakedHandleIsNamedError) {
  World world(2);
  world.enable_validation();
  try {
    world.run([&](Comm& c) {
      std::vector<float> v(4, static_cast<float>(c.rank()));
      CollectiveHandle h = c.iallreduce(std::span<float>(v));
      // Deliberately destroyed without wait()/test()-to-done.
    });
    FAIL() << "leaked CollectiveHandle was not detected";
  } catch (const ValidationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("leaked CollectiveHandle"), std::string::npos)
        << what;
    EXPECT_NE(what.find("iallreduce"), std::string::npos) << what;
  }
}

TEST(Nonblocking, WatchdogReportsInitiatedButNeverWaited) {
  World world(2);
  world.set_validation_timeout(std::chrono::milliseconds(200));
  try {
    world.run([&](Comm& c) {
      std::vector<float> v(4, 1.0f);
      CollectiveHandle h = c.iallreduce(std::span<float>(v));
      // Both ranks now block on a message nobody sends while the
      // all-reduce is still in flight: the watchdog report must list it
      // distinctly from the blocked recv.
      (void)c.recv<float>((c.rank() + 1) % 2, /*tag=*/99);
      h.wait();
    });
    FAIL() << "watchdog did not fire";
  } catch (const Error& e) {  // the PopWatch throws plain mbd::Error
    const std::string what = e.what();
    EXPECT_NE(what.find("initiated but not completed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("iallreduce"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mbd::comm
