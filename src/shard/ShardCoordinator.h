//===- ShardCoordinator.h - Crash-tolerant shard dispatch --------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator side of the sharded execution tier (DESIGN.md,
/// "Sharded execution and failure model"). A ShardCoordinator implements
/// the engine's WaveShardExecutor contract by partitioning each wave into
/// contiguous shards and farming them to a pool of fork/exec'd `anek
/// --worker` children over the anek-shard-v2 framed pipe protocol.
///
/// Failure is first-class, not exceptional:
///
///  - *crash*: the worker's stdout hits EOF (or the Task write gets
///    EPIPE); the worker is reaped, the shard re-dispatched.
///  - *hang*: no frame — heartbeat included — arrives within the
///    heartbeat deadline; the worker is killed and the shard
///    re-dispatched.
///  - *corrupt*: a frame fails its magic/version/length/checksum
///    validation; the worker is recycled (its stream can no longer be
///    trusted) and the shard re-dispatched.
///
/// All of these classify as ErrorCode::WorkerLost — transient by
/// contract — and re-dispatch backs off under the serving layer's
/// RetryPolicy jitter. QuarantineAfter consecutive losses on one shard
/// degrade it to runShardMethods in-process, so the terminal state is
/// degraded(shard-quarantine) and never "lost". Because a re-dispatched
/// or quarantined shard re-runs against the same frozen snapshot, the
/// merged results are byte-identical to `-j1` no matter how many workers
/// died along the way.
///
/// The worker-crash / worker-hang / wire-corrupt fault kinds are
/// implemented here with real kernel effects (SIGKILL, SIGSTOP, a flipped
/// payload byte).
///
/// The coordinator is also the telemetry aggregation point (DESIGN.md,
/// "Distributed telemetry"): Telemetry frames arriving ahead of each
/// Result are merged into the unified trace as per-worker-pid lanes
/// (flow-linked to the dispatch span) and into the metrics registry under
/// the `shard.worker.` prefix; spawns, losses and quarantines become
/// trace instants. All of it is best-effort and read-only with
/// respect to results — the merged outcome bytes are identical with
/// collection on or off.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_SHARDCOORDINATOR_H
#define ANEK_SHARD_SHARDCOORDINATOR_H

#include "infer/AnekInfer.h"
#include "serve/RetryPolicy.h"
#include "support/Subprocess.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace anek {
namespace shard {

struct CoordinatorOptions {
  /// Worker processes (= maximum shards per wave). The driver's
  /// `--shards N`.
  unsigned Workers = 2;
  /// A worker that produces no frame — heartbeats count — for this long
  /// while owing a result is declared hung and dropped. Workers heartbeat
  /// every HeartbeatIntervalSeconds, so this is ~50 missed beats. The
  /// driver's `--heartbeat-timeout`.
  double HeartbeatTimeoutSeconds = 10.0;
  /// Consecutive worker losses on one shard dispatch before it is
  /// quarantined to in-process execution.
  unsigned QuarantineAfter = 3;
  /// Per-connection frame cap, bounding decode pre-allocation (0 = the
  /// protocol default, MaxFramePayload). The driver's
  /// `--shard-max-frame-bytes`.
  uint64_t MaxFrameBytes = 0;
  /// Worker command line; empty means {<self-exe>, "--worker"}. Tests
  /// point this at the real `anek` binary.
  std::vector<std::string> WorkerArgv;
  /// Extra arguments appended to WorkerArgv (whether defaulted or not):
  /// the driver forwards its own telemetry flags (`--trace-level`, and
  /// `--trace`/`--metrics` when their paths carry a `%p` pid slot) so
  /// workers collect what the coordinator collects.
  std::vector<std::string> WorkerExtraArgv;
  /// Backoff between re-dispatches of a lost shard (the same policy —
  /// and the same deterministic jitter — the serving layer retries with).
  serve::RetryPolicy Retry;
};

/// Farms wave batches out to worker processes. One coordinator serves
/// one inference run (it holds the Program for quarantine fallback);
/// workers persist across waves and are shut down by the destructor.
///
/// Thread-safety: executeWave is called from the engine's scheduler loop
/// (one wave at a time); the per-shard dispatch threads it spawns each
/// own their worker slot exclusively. The stats are shared across those
/// threads and mutex-guarded; stats() may race executeWave.
class ShardCoordinator : public WaveShardExecutor {
public:
  /// \p Source must be the exact text \p Prog was parsed from — workers
  /// re-parse it, and the decl-index identification of methods relies on
  /// both sides seeing the same program. \p Opts carries the algorithm
  /// knobs forwarded to workers; scheduling fields are ignored.
  ShardCoordinator(Program &Prog, std::string Source, InferOptions Opts,
                   CoordinatorOptions CoOpts = {});
  ~ShardCoordinator() override;

  Expected<std::vector<summaryio::SolveOutcome>>
  executeWave(const std::vector<unsigned> &DeclIndices,
              const std::string &Snapshot) override;

  ShardStats stats() const override;

private:
  /// Spawns the slot's worker and sends it the Init frame, unless a
  /// worker from a previous dispatch is still alive.
  Status ensureWorker(unsigned SlotIndex);
  /// One shard, driven to its terminal state: dispatch / re-dispatch
  /// under the loss budget, then quarantine. Never loses the shard.
  Expected<std::vector<summaryio::SolveOutcome>>
  runShard(unsigned SlotIndex, uint32_t Wave,
           const std::vector<unsigned> &Indices, const std::string &Snapshot);
  /// One dispatch attempt on a running worker. \p WorkerReported
  /// is set when the failure is a worker Error frame (deterministic, not
  /// retryable). Telemetry frames arriving before the Result are merged
  /// into the local trace/metrics stores here; an undecodable one is
  /// dropped and counted, never escalated — losing a span must not cost
  /// a dispatch.
  Expected<std::vector<summaryio::SolveOutcome>>
  dispatchOnce(subprocess::ChildProcess &Worker, uint32_t Wave,
               const std::vector<unsigned> &Indices,
               const std::string &Snapshot, bool &WorkerReported);

  Program &Prog;
  InferOptions Opts; ///< Leaf options: ShardExec cleared.
  CoordinatorOptions Co;
  std::string InitPayload; ///< encodeInit(Source, Opts), sent per spawn.
  /// One worker per slot; slot k runs shard k of every wave. Sized once
  /// in the constructor, so dispatch threads may hold references.
  std::vector<subprocess::ChildProcess> Slots;
  std::atomic<uint32_t> WaveOrdinal{0}; ///< Stamped into Task frames.

  mutable std::mutex StatsMutex;
  ShardStats Stats;
};

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_SHARDCOORDINATOR_H
