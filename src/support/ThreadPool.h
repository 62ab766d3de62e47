//===- ThreadPool.h - Work-queue thread pool ---------------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size work-queue thread pool for the parallel inference
/// scheduler (DESIGN.md, "Concurrency model"). Jobs are submitted with
/// submit(); wait() blocks until every submitted job has finished and
/// rethrows the first exception a worker captured, so a throwing job
/// surfaces in the scheduling thread instead of killing the process.
/// Destruction drains the queue (graceful shutdown): every job submitted
/// before the destructor runs is executed.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_THREADPOOL_H
#define ANEK_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anek {

/// Fixed-size pool of worker threads draining a FIFO job queue.
class ThreadPool {
public:
  /// Spawns \p ThreadCount workers (0 means defaultParallelism()).
  explicit ThreadPool(unsigned ThreadCount = 0);

  /// Drains the queue, then joins every worker. An unconsumed worker
  /// exception is swallowed here (wait() is the reporting channel).
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Job for execution by any worker.
  void submit(std::function<void()> Job);

  /// Blocks until the queue is empty and no job is in flight, then
  /// rethrows the first exception any worker captured since the last
  /// wait(). The pool stays usable after wait(), including after a
  /// rethrow.
  void wait();

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// What `--jobs` defaults to: hardware_concurrency, with a floor of 1
  /// when the runtime cannot tell.
  static unsigned defaultParallelism();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  mutable std::mutex Mutex;
  std::condition_variable WorkReady; ///< Signals queued work / shutdown.
  std::condition_variable Idle;      ///< Signals queue drained + none active.
  unsigned Active = 0;               ///< Jobs currently executing.
  bool ShuttingDown = false;
  std::exception_ptr FirstError; ///< First worker exception since wait().
};

/// Runs Fn(0), ..., Fn(Count-1). With a null \p Pool (or a single-threaded
/// one) the calls run inline in index order; otherwise they are submitted
/// as pool jobs and this blocks until all complete (the first worker
/// exception rethrows here). Completion is tracked per call, not via
/// ThreadPool::wait, so any number of parallelFor calls may share one
/// pool concurrently without waiting on each other's jobs. Callers must
/// make Fn calls independent: the parallel inference scheduler relies on
/// this to run wave jobs against a read-only snapshot. Must not be called
/// from inside a pool job of the same pool (the blocked worker would
/// deadlock a saturated pool).
void parallelFor(ThreadPool *Pool, size_t Count,
                 const std::function<void(size_t)> &Fn);

/// True when parallelFor(Pool, Count, ...) runs its calls inline on the
/// calling thread. Such calls never queue, so callers that measure queue
/// wait must not record any for them.
bool parallelForRunsInline(const ThreadPool *Pool, size_t Count);

} // namespace anek

#endif // ANEK_SUPPORT_THREADPOOL_H
