//===- SolveCache.h - Content-addressed SOLVE memoization --------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-side interface of the incremental summary cache. The engine
/// memoizes individual SOLVE invocations, and the cache sits behind its
/// in-run memo: a pick whose state the run has already solved replays
/// from the memo, and only a state the run has not seen is looked up.
/// The key digests *every* input the solve depends on — the method's
/// token stream, the transitive content of its callees' SCCs, the
/// algorithm options, and the exact bit patterns of the pooled summary
/// odds applied as priors. A hit replays
/// the stored evidence byte-identically (the key guarantees the solve
/// would have produced exactly those bytes); a miss solves and stores.
/// Because the applied-prior bit patterns are part of the key, dirtiness
/// needs no separate propagation protocol: editing a method changes its
/// SCC's content hash, which changes the chain hashes of every
/// transitive caller, so exactly the reachable waves miss.
///
/// An entry is the engine's own SOLVE record (summaryio::SolveOutcome):
/// its method's declaration index and one odds vector per summary
/// application of the method's model, in application order, with no word
/// of which targets those are. Replaying it into a later run is sound
/// because the key's prefix pins both: the environment hash digests
/// every type's method count and ordered method signatures, and with the
/// method's SCC chain hash and declaration index it fixes the method's
/// PFG and the summary targets the PFG applies. An edit that shifts any
/// declaration index or changes an application list changes the key, so
/// such an entry can only be invalidated, never replayed.
///
/// The interface lives in src/infer so the engine does not depend on the
/// storage backend; the on-disk implementation is src/cache/SummaryCache,
/// injected by the driver.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_SOLVECACHE_H
#define ANEK_INFER_SOLVECACHE_H

#include "infer/SummaryIO.h"

#include <cstdint>
#include <string>

namespace anek {

/// What the cache stores and replays: one successful SOLVE's record.
using CachedSolve = summaryio::SolveOutcome;

/// Lookup classification, kept distinct so the run's accounting can tell
/// "never seen" from "seen but edited" from "entry rotted on disk". All
/// three non-Hit outcomes mean the same thing operationally: solve it.
enum class CacheLookup {
  Hit,         ///< Key matched; \p Out is the replayable entry.
  Miss,        ///< Nothing cached under this method name.
  Invalidated, ///< Cached under a different key: content changed.
  Corrupt,     ///< Entry exists but failed checksum/version/decode.
};

/// Storage interface the engine calls through. The engine calls lookup
/// from its wave jobs, so concurrently under `-j N`, at most once per
/// distinct state per run; it calls store from its scheduling thread
/// only, after each wave, in batch order. Implementations must be
/// thread-safe, which also lets one instance serve several runs at once.
class SolveCache {
public:
  virtual ~SolveCache() = default;

  /// Looks up the entry for \p MethodName under content key \p Key.
  virtual CacheLookup lookup(const std::string &MethodName, uint64_t Key,
                             CachedSolve &Out) = 0;

  /// Stores \p Entry for \p MethodName under \p Key, beside every entry
  /// the method was stored under before (one per summary state a warm
  /// replay must reproduce). Storage failures are absorbed (a cache that
  /// cannot persist degrades to misses, never to errors).
  virtual void store(const std::string &MethodName, uint64_t Key,
                     const CachedSolve &Entry) = 0;
};

/// Per-run cache accounting, carried in InferResult.
struct CacheStats {
  /// Replays of entries an earlier run stored. A state this run has
  /// already solved or read replays from the in-run memo instead
  /// (InferResult::MemoReplays), so a cold run reads 0.
  unsigned Hits = 0;
  unsigned Misses = 0;
  /// Lookups that found an entry under a stale key (content changed) plus
  /// hits whose replay failed validation against the current program.
  unsigned Invalidated = 0;
  /// Entries that failed envelope/decode validation (classified as
  /// misses, never as errors — see DESIGN.md).
  unsigned Corrupt = 0;
  /// Fresh solves written back: one per miss, invalidation or corrupt
  /// read whose solve did not fail.
  unsigned Stores = 0;
};

} // namespace anek

#endif // ANEK_INFER_SOLVECACHE_H
