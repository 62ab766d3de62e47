//===- ThreadPool.h - Worker threads for parallelFor -------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threads behind parallelFor, the parallel inference scheduler's only
/// primitive (DESIGN.md, "Concurrency model"). A pool for N working
/// threads owns N - 1 workers; the thread that calls parallelFor is the
/// N-th. One parallelFor call hands its indices out through a single
/// atomic counter, so an index costs one fetch-add, not a queued job.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_THREADPOOL_H
#define ANEK_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anek {

/// Parked worker threads that join the calling thread inside parallelFor.
class ThreadPool {
public:
  /// A pool for \p Parallelism working threads: Parallelism - 1 workers
  /// plus whichever thread calls parallelFor. 0 means
  /// defaultParallelism(); 1 spawns no worker, so every call runs inline.
  explicit ThreadPool(unsigned Parallelism = 0);

  /// Joins every worker. No parallelFor may be running on the pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Working threads a parallelFor call gets: the workers plus its caller.
  unsigned parallelism() const {
    return static_cast<unsigned>(Workers.size()) + 1;
  }

  /// What `--jobs` defaults to: hardware_concurrency, with a floor of 1
  /// when the runtime cannot tell.
  static unsigned defaultParallelism();

  /// The largest thread count `--jobs` accepts. A pool starts all of its
  /// workers up front, so a count from the command line must be bounded
  /// before it reaches the constructor.
  static constexpr unsigned MaxParallelism = 256;

private:
  friend void parallelFor(ThreadPool *Pool, size_t Count,
                          const std::function<void(size_t)> &Fn);
  struct Loop;

  void workerLoop();

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  /// Signals a published loop or shutdown to the workers.
  std::condition_variable WorkReady;
  /// Signals the publishing caller that the last joined worker left.
  std::condition_variable WorkersLeft;
  /// The parallelFor call in progress, which workers may join; null
  /// between calls.
  Loop *Current = nullptr;
  /// Bumped per published loop, so a worker joins each one at most once.
  uint64_t Generation = 0;
  /// Workers currently inside Current.
  unsigned Joined = 0;
  bool ShuttingDown = false;
};

/// Runs Fn(0), ..., Fn(Count-1), each exactly once, and returns when all
/// have finished. The calling thread runs indices itself alongside the
/// pool's workers, which take the next index from a shared atomic counter
/// until none is left. With a null \p Pool, a pool of parallelism 1 or
/// Count <= 1, the calls run inline in index order; so does a call that
/// finds the pool busy with another parallelFor (a nested or concurrent
/// call), which therefore never deadlocks. If an Fn call throws, no index
/// is handed out after it, the calls in flight finish, and the first
/// exception is rethrown here; the pool stays usable. Callers must make Fn
/// calls independent: the parallel inference scheduler relies on this to
/// run wave jobs against a read-only snapshot.
void parallelFor(ThreadPool *Pool, size_t Count,
                 const std::function<void(size_t)> &Fn);

} // namespace anek

#endif // ANEK_SUPPORT_THREADPOOL_H
