//===- ThreadPool.cpp - Worker threads for parallelFor ---------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <exception>

using namespace anek;

/// One parallelFor call: its indices, the counter that hands them out and
/// the first exception an index threw. Lives on the calling thread's
/// stack; the caller outlives every worker that joined it.
struct ThreadPool::Loop {
  const std::function<void(size_t)> &Fn;
  const size_t Count;
  std::atomic<size_t> Next{0};
  std::mutex ErrorMutex;
  std::exception_ptr Error;

  Loop(const std::function<void(size_t)> &Fn, size_t Count)
      : Fn(Fn), Count(Count) {}

  /// Runs indices until none is left. The caller and every joined worker
  /// run this; the pool mutex, taken when a worker leaves, publishes
  /// their writes to the caller.
  void drain() {
    for (size_t I = Next++; I < Count; I = Next++) {
      try {
        Fn(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!Error)
          Error = std::current_exception();
        Next = Count; // Hand out nothing more.
      }
    }
  }
};

unsigned ThreadPool::defaultParallelism() {
  unsigned N = std::thread::hardware_concurrency();
  return N > 0 ? N : 1;
}

ThreadPool::ThreadPool(unsigned Parallelism) {
  if (Parallelism == 0)
    Parallelism = defaultParallelism();
  Workers.reserve(Parallelism - 1);
  for (unsigned I = 1; I != Parallelism; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::workerLoop() {
  uint64_t Seen = 0;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkReady.wait(Lock, [&] {
      return ShuttingDown || (Current && Generation != Seen);
    });
    if (ShuttingDown)
      return;
    Seen = Generation;
    Loop *L = Current;
    ++Joined;
    Lock.unlock();
    L->drain();
    Lock.lock();
    if (--Joined == 0)
      WorkersLeft.notify_one();
  }
}

void anek::parallelFor(ThreadPool *Pool, size_t Count,
                       const std::function<void(size_t)> &Fn) {
  auto RunInline = [&] {
    for (size_t I = 0; I != Count; ++I)
      Fn(I);
  };
  if (!Pool || Pool->parallelism() <= 1 || Count <= 1)
    return RunInline();
  ThreadPool::Loop L(Fn, Count);
  bool Busy;
  {
    std::lock_guard<std::mutex> Lock(Pool->Mutex);
    Busy = Pool->Current != nullptr; // A nested or concurrent call.
    if (!Busy) {
      Pool->Current = &L;
      ++Pool->Generation;
    }
  }
  if (Busy)
    return RunInline();
  Pool->WorkReady.notify_all();
  L.drain();
  {
    // Wait for the workers inside to leave, then close the loop in the
    // same critical section: no worker can join it after that, so L may
    // go out of scope. A worker that joins late finds no index left.
    std::unique_lock<std::mutex> Lock(Pool->Mutex);
    Pool->WorkersLeft.wait(Lock, [Pool] { return Pool->Joined == 0; });
    Pool->Current = nullptr;
  }
  if (L.Error)
    std::rethrow_exception(L.Error);
}
