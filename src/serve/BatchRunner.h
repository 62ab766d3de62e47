//===- BatchRunner.h - Resource-governed batch execution ---------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a stream of inference requests through the pipeline under
/// resource governance (DESIGN.md, "Serving model"). The runner owns a
/// bounded RequestQueue, a fixed set of serving worker threads, and one
/// shared inference ThreadPool; each request is executed under a
/// per-request governor (Deadline + memory budget + CancelToken) with
/// transient failures retried per RetryPolicy. Every offered request ends
/// in exactly one terminal state (ok/degraded/failed/timeout/shed) and is
/// reported exactly once through the streaming sink and the returned
/// (index-ordered) result vector.
///
/// Graceful drain: requestDrain() — or a flipped DrainSignal, the driver
/// wires SIGINT/SIGTERM to one — stops admission (remaining offers are
/// shed with reason "drain"), lets queued and in-flight requests finish,
/// and suppresses further retry attempts.
///
/// Fault activations made for requests carrying a fault= spec are
/// process-global and persist after run() returns (the registry has no
/// per-activation handle); in-process callers that keep running, i.e.
/// tests, isolate themselves with faults::reset().
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SERVE_BATCHRUNNER_H
#define ANEK_SERVE_BATCHRUNNER_H

#include "serve/RetryPolicy.h"
#include "serve/Serve.h"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace anek {

class Program;
class SolveCache;
class ThreadPool;
class WaveShardExecutor;
struct InferOptions;

namespace serve {

/// Builds a per-request shard executor: (program, the source it was
/// parsed from, the fully resolved inference options, shard count) -> a
/// WaveShardExecutor the runner owns for the attempt. This is serve's
/// only view of the shard tier — the layer below never links src/shard/;
/// the driver injects a factory that constructs a shard::ShardCoordinator
/// (tools/anek.cpp). Requests asking for shards while no factory is wired
/// simply run in process.
using ShardFactory = std::function<std::unique_ptr<WaveShardExecutor>(
    Program &Prog, const std::string &Source, const InferOptions &Opts,
    unsigned Shards)>;

/// Resolves a `cache=` directory to a live summary cache: serve's only
/// view of the cache tier (src/cache/ is never linked here; the driver
/// injects a provider that owns one cache::SummaryCache per directory,
/// shared across the requests naming it — the instances must outlive the
/// batch). Returning null disables caching for that request.
using CacheProvider = std::function<SolveCache *(const std::string &Dir)>;

/// Batch-wide knobs; per-request manifest keys override the defaults.
struct BatchOptions {
  /// Serving worker threads (requests in flight concurrently).
  unsigned Workers = 4;
  /// RequestQueue capacity.
  size_t QueueCap = 64;
  /// Retry budget per request (total attempts, first try included).
  unsigned MaxAttempts = 3;
  double RetryBaseDelaySeconds = 0.01;
  double RetryMaxDelaySeconds = 0.5;
  /// Default per-request wall-clock deadline in seconds; 0 = unlimited.
  double DefaultDeadlineSeconds = 0.0;
  /// Default per-request peak-memory budget in bytes; 0 = unlimited.
  long long DefaultMemBudgetBytes = 0;
  /// Default wave-job parallelism per request. 1 solves inline on the
  /// serving worker (request-level parallelism only).
  unsigned DefaultJobs = 1;
  /// Default shard worker processes per request (0 = sharding off unless
  /// a request opts in with shards=N).
  unsigned DefaultShards = 0;
  /// Shard-tier injection point (see ShardFactory above). Unset = every
  /// request runs in process regardless of shard counts.
  ShardFactory Shards;
  /// Default summary-cache directory; requests override with `cache=`.
  /// Empty = caching off unless a request opts in.
  std::string DefaultCacheDir;
  /// Cache-tier injection point (see CacheProvider above). Unset = every
  /// request runs uncached regardless of cache directories.
  CacheProvider Cache;
  /// Threads of the shared inference pool (created only when some request
  /// has jobs > 1); 0 = one per hardware thread.
  unsigned PoolThreads = 0;
  /// Mixed into solver seeds and retry jitter.
  uint64_t Seed = 1;
  /// When set, a full queue sheds instead of backpressuring the producer
  /// (load tests and the throughput bench; the batch driver keeps the
  /// default blocking admission).
  bool ShedWhenFull = false;
  /// Slow-request log threshold in seconds; 0 disables the log. A request
  /// whose execution time (queue wait excluded) reaches the threshold
  /// emits a span-tree dump — the trace spans its serving thread recorded
  /// during the request, indented by nesting depth — through SlowLog, so
  /// a single outlier in a long batch explains itself without re-running
  /// under a profiler. Purely observational: results are identical with
  /// the log on or off.
  double SlowRequestSeconds = 0.0;
  /// Sink for slow-request dumps (one multi-line string per slow
  /// request); unset logs to stderr. Called from the serving thread that
  /// ran the request, unserialized.
  std::function<void(const std::string &)> SlowLog;
  /// Invoked once per terminal result, in completion order, from the
  /// thread that finished the request (serialized by the runner). The
  /// JSONL stream writer of `anek batch` plugs in here.
  std::function<void(const BatchResult &)> Sink;
  /// Async-signal drain flag: the runner polls it at admission and retry
  /// boundaries. The driver points this at its SIGINT/SIGTERM flag.
  const volatile std::sig_atomic_t *DrainSignal = nullptr;
};

/// Executes one batch. A runner instance is single-use: construct, run,
/// inspect. requestDrain() may be called from another thread at any time.
class BatchRunner {
public:
  explicit BatchRunner(BatchOptions Opts);

  /// Runs every request to a terminal state and returns the results
  /// ordered by request index. Blocks until done (or drained).
  std::vector<BatchResult> run(std::vector<BatchRequest> Requests);

  /// Initiates graceful drain: stop admitting, finish in-flight work,
  /// stop retrying. Safe from any thread; idempotent.
  void requestDrain();

  bool drainRequested() const;

private:
  BatchResult processOne(const BatchRequest &R, ThreadPool *SharedPool);
  Status runAttempt(const BatchRequest &R, ThreadPool *SharedPool,
                    BatchResult &Res);

  BatchOptions Opts;
  std::atomic<bool> Drain{false};
};

} // namespace serve
} // namespace anek

#endif // ANEK_SERVE_BATCHRUNNER_H
