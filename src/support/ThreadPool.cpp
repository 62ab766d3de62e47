//===- ThreadPool.cpp - Work-queue thread pool -----------------------------===//

#include "support/ThreadPool.h"

#include <utility>

using namespace anek;

unsigned ThreadPool::defaultParallelism() {
  unsigned N = std::thread::hardware_concurrency();
  return N > 0 ? N : 1;
}

ThreadPool::ThreadPool(unsigned ThreadCount) {
  if (ThreadCount == 0)
    ThreadCount = defaultParallelism();
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    // Graceful shutdown: workers finish everything already queued before
    // exiting their loops.
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::submit(std::function<void()> Job) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Job));
  }
  WorkReady.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && Active == 0; });
  if (FirstError) {
    std::exception_ptr Error = std::exchange(FirstError, nullptr);
    Lock.unlock();
    std::rethrow_exception(Error);
  }
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkReady.wait(Lock, [this] { return !Queue.empty() || ShuttingDown; });
    if (Queue.empty()) {
      if (ShuttingDown)
        return;
      continue;
    }
    std::function<void()> Job = std::move(Queue.front());
    Queue.pop_front();
    ++Active;
    Lock.unlock();
    try {
      Job();
    } catch (...) {
      std::unique_lock<std::mutex> ErrorLock(Mutex);
      if (!FirstError)
        FirstError = std::current_exception();
    }
    Lock.lock();
    --Active;
    if (Queue.empty() && Active == 0)
      Idle.notify_all();
  }
}

bool anek::parallelForRunsInline(const ThreadPool *Pool, size_t Count) {
  return !Pool || Pool->threadCount() <= 1 || Count <= 1;
}

void anek::parallelFor(ThreadPool *Pool, size_t Count,
                       const std::function<void(size_t)> &Fn) {
  if (parallelForRunsInline(Pool, Count)) {
    for (size_t I = 0; I != Count; ++I)
      Fn(I);
    return;
  }
  // Per-call completion latch rather than Pool->wait(): several
  // parallelFor calls may drive one shared pool concurrently, and
  // pool-global wait() would block on — and steal exceptions from —
  // unrelated callers' jobs. Stack references stay valid because this
  // call blocks until its own Remaining hits zero.
  struct Latch {
    std::mutex Mutex;
    std::condition_variable Done;
    size_t Remaining;
    std::exception_ptr First;
  } L;
  L.Remaining = Count;
  for (size_t I = 0; I != Count; ++I)
    Pool->submit([&L, &Fn, I] {
      try {
        Fn(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(L.Mutex);
        if (!L.First)
          L.First = std::current_exception();
      }
      std::lock_guard<std::mutex> Lock(L.Mutex);
      if (--L.Remaining == 0)
        L.Done.notify_all();
    });
  std::unique_lock<std::mutex> Lock(L.Mutex);
  L.Done.wait(Lock, [&L] { return L.Remaining == 0; });
  if (L.First) {
    std::exception_ptr Error = L.First;
    Lock.unlock();
    std::rethrow_exception(Error);
  }
}
