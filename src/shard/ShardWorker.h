//===- ShardWorker.h - The `anek --worker` process loop ----------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker side of the sharded execution tier (DESIGN.md, "Sharded
/// execution and failure model"). A worker is a fork/exec'd copy of the
/// driver running runWorkerLoop over its stdin/stdout: it receives one
/// Init frame (program source + algorithm options), then serves Task
/// frames — analyze these declaration indices against this summary
/// snapshot — until Shutdown or EOF. While a task runs, a heartbeat
/// thread emits Heartbeat frames so the coordinator can tell "slow" from
/// "hung"; writes are mutex-serialized so a heartbeat can never tear a
/// Result frame.
///
/// A worker is deliberately stateless between tasks (every Task carries
/// its full snapshot): the coordinator may kill and respawn one at any
/// moment, and a re-dispatched shard on a fresh worker computes exactly
/// the bytes the lost worker would have.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_SHARDWORKER_H
#define ANEK_SHARD_SHARDWORKER_H

namespace anek {
namespace shard {

/// Runs the worker protocol over \p InFd (frames from the coordinator)
/// and \p OutFd (frames back). Returns a process exit code: 0 on a clean
/// Shutdown/EOF, 1 when the session could not even start (unparseable
/// Init program — reported as an Error frame first). Task-level failures
/// are protocol traffic (Error frames), not exit codes: the worker stays
/// up for the next task, and the coordinator decides what the failure
/// means.
int runWorkerLoop(int InFd, int OutFd);

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_SHARDWORKER_H
