//===- threadpool_test.cpp - parallelFor and its ThreadPool -----------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// parallelFor is the parallel inference scheduler's only primitive, so
// the properties tested here are exactly the ones the scheduler leans
// on: every index runs once and is done when the call returns, `-j N`
// means N working threads with the caller among them, a throwing index
// surfaces in the caller instead of killing the process, and the pool
// stays usable afterwards.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

using namespace anek;

TEST(ThreadPoolTest, ParallelismCountsTheCaller) {
  EXPECT_EQ(ThreadPool(4).parallelism(), 4u);
  EXPECT_EQ(ThreadPool(2).parallelism(), 2u);
  EXPECT_EQ(ThreadPool(1).parallelism(), 1u);
  // 0 means "auto", never a pool without the caller.
  EXPECT_GE(ThreadPool::defaultParallelism(), 1u);
  EXPECT_EQ(ThreadPool(0).parallelism(), ThreadPool::defaultParallelism());
}

TEST(ThreadPoolTest, EveryIndexRunsOnceAndIsDoneOnReturn) {
  // Counts below, equal to and far above the four working threads. The
  // hits are plain writes read after the call: parallelFor's return must
  // order them (ThreadSanitizer checks that under -DANEK_SANITIZE=thread).
  ThreadPool Pool(4);
  for (size_t Count : {0, 1, 2, 3, 4, 5, 7, 64, 10007}) {
    std::vector<unsigned> Hits(Count, 0);
    parallelFor(&Pool, Count, [&](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I != Count; ++I)
      ASSERT_EQ(Hits[I], 1u) << "count " << Count << ", index " << I;
  }
}

TEST(ThreadPoolTest, CallerWorksBesideTheWorkers) {
  // A pool for two threads has one worker, and the caller is the second:
  // two indices that each wait for the other to start can only finish
  // if they run at once, one of them on the caller. An inline run (a
  // 1-worker pool mistaken for -j1) or a caller that only waits would
  // leave them waiting out the deadline.
  ThreadPool Pool(2);
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<unsigned> Started{0};
  std::thread::id Ran[2];
  bool Met[2] = {false, false};
  parallelFor(&Pool, 2, [&](size_t I) {
    Ran[I] = std::this_thread::get_id();
    ++Started;
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (Started.load() < 2 && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    Met[I] = Started.load() == 2;
  });
  EXPECT_TRUE(Met[0] && Met[1]) << "the two indices never ran at once";
  EXPECT_NE(Ran[0], Ran[1]);
  EXPECT_TRUE(Ran[0] == Caller || Ran[1] == Caller)
      << "the calling thread ran no index";
}

TEST(ThreadPoolTest, WithoutWorkersTheCallRunsInlineInOrder) {
  // A null pool and a pool of parallelism 1 are the sequential scheduler
  // path: the calling thread, in index order.
  ThreadPool Single(1);
  for (ThreadPool *Pool : {static_cast<ThreadPool *>(nullptr), &Single}) {
    std::vector<size_t> Order;
    const std::thread::id Caller = std::this_thread::get_id();
    bool SameThread = true;
    parallelFor(Pool, 5, [&](size_t I) {
      Order.push_back(I);
      SameThread = SameThread && std::this_thread::get_id() == Caller;
    });
    EXPECT_TRUE(SameThread);
    ASSERT_EQ(Order.size(), 5u);
    for (size_t I = 0; I != Order.size(); ++I)
      EXPECT_EQ(Order[I], I);
  }
}

TEST(ThreadPoolTest, ThrowingIndexPropagatesAndPoolStaysUsable) {
  ThreadPool Pool(3);
  std::atomic<unsigned> Ran{0};
  EXPECT_THROW(parallelFor(&Pool, 1000,
                           [&](size_t I) {
                             ++Ran;
                             if (I == 37)
                               throw std::runtime_error("index 37 exploded");
                           }),
               std::runtime_error);
  EXPECT_GE(Ran.load(), 1u);

  // The next call covers every index and does not see the old error.
  std::vector<unsigned> Hits(500, 0);
  EXPECT_NO_THROW(
      parallelFor(&Pool, Hits.size(), [&](size_t I) { ++Hits[I]; }));
  for (size_t I = 0; I != Hits.size(); ++I)
    ASSERT_EQ(Hits[I], 1u) << "index " << I;

  EXPECT_THROW(parallelFor(nullptr, 3,
                           [&](size_t) {
                             throw std::runtime_error("inline boom");
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedCallRunsInlineOnItsThread) {
  // A call made from inside an index finds the pool busy and runs on the
  // thread that made it, instead of waiting on workers that are busy
  // running the outer call.
  ThreadPool Pool(4);
  std::vector<std::vector<unsigned>> Hits(16, std::vector<unsigned>(8, 0));
  std::atomic<bool> AllInline{true};
  parallelFor(&Pool, Hits.size(), [&](size_t I) {
    const std::thread::id Outer = std::this_thread::get_id();
    parallelFor(&Pool, Hits[I].size(), [&](size_t J) {
      if (std::this_thread::get_id() != Outer)
        AllInline = false;
      ++Hits[I][J];
    });
  });
  EXPECT_TRUE(AllInline.load());
  for (const std::vector<unsigned> &Row : Hits)
    for (unsigned H : Row)
      ASSERT_EQ(H, 1u);
}
