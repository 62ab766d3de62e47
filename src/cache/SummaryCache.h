//===- SummaryCache.h - On-disk/in-memory solve cache ------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage backend of the incremental summary cache (the engine-side
/// contract is src/infer/SolveCache.h; the design discussion is in
/// DESIGN.md, "Incremental inference and the summary cache").
///
/// Layout of a cache directory:
///
///   <dir>/index.anek-cache-v1   one header line, then one
///                               "<16-hex-key> <qualified-name>" line per
///                               stored entry, appended on store; a method
///                               keeps *every* key it was stored under
///                               (the engine's fixpoint solves one method
///                               several times per run, once per summary
///                               state, and a warm replay needs the whole
///                               trajectory, not just the final state;
///                               repeats of a state within one run replay
///                               from the engine's memo and never reach
///                               the cache)
///   <dir>/<16-hex-key>.sum      one sealed CacheEntry blob per key
///                               (summaryio envelope: magic, version,
///                               kind, length, checksum, key echo)
///
/// Every defect a stale or tampered directory can exhibit — truncated
/// index, missing blob file, bit flips, a blob written by a different
/// wire version, a blob renamed to another key — is classified as a miss
/// (CacheLookup::Corrupt, counted), never as an error: a rotten cache
/// costs a re-solve, not a failed run. Store failures are likewise
/// absorbed (a cache that cannot persist degrades to misses).
///
/// An empty directory string keeps the cache purely in memory; entries
/// still round-trip through the sealed blob codec so the corruption
/// behavior is identical to disk.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_CACHE_SUMMARYCACHE_H
#define ANEK_CACHE_SUMMARYCACHE_H

#include "infer/SolveCache.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

namespace anek {
namespace cache {

/// Name of the index file inside a cache directory; doubles as the
/// on-disk format version (a directory written by an incompatible future
/// layout simply has no index under this name and reads as empty).
inline constexpr const char *IndexFileName = "index.anek-cache-v1";

/// Thread-safe SolveCache over one directory (or memory). A single mutex
/// guards the index and all file traffic, so the engine may call lookup
/// from several wave jobs at once, and one instance may be shared by
/// concurrent runs.
class SummaryCache : public SolveCache {
public:
  /// Opens (and if needed creates) \p Dir, loading any existing index.
  /// An empty \p Dir selects the in-memory mode. Never fails: an
  /// unusable directory behaves as an always-miss cache.
  explicit SummaryCache(std::string Dir);

  CacheLookup lookup(const std::string &MethodName, uint64_t Key,
                     CachedSolve &Out) override;
  void store(const std::string &MethodName, uint64_t Key,
             const CachedSolve &Entry) override;

  /// Storage-level accounting since construction, across every run that
  /// shared this instance (the per-run view lives in InferResult::Cache).
  CacheStats stats() const;

  /// Number of entries currently indexed (tests).
  size_t size() const;

private:
  /// "<16-hex>" of \p Key — the blob's base name and the index's key
  /// column.
  static std::string hexKey(uint64_t Key);

  /// Loads the sealed blob for \p Key into \p Blob. False when the blob
  /// is missing/unreadable (disk) or was never stored (memory).
  bool loadBlob(uint64_t Key, std::string &Blob);

  /// Persists \p Blob for \p Key (temp file + rename on disk). False on
  /// any I/O failure.
  bool saveBlob(uint64_t Key, const std::string &Blob);

  /// Parses the index file into Index. Malformed content abandons the
  /// rest of the file (counted as one corrupt event) — entries already
  /// parsed stay usable.
  void loadIndex();

  mutable std::mutex Mutex;
  std::string Dir; ///< Empty in the in-memory mode.
  /// Qualified method name -> every content key stored for it (one per
  /// summary state its fixpoint trajectory visited).
  std::map<std::string, std::set<uint64_t>> Index;
  /// Sealed blobs by key (in-memory mode only).
  std::map<uint64_t, std::string> MemBlobs;
  CacheStats Stats;
};

} // namespace cache
} // namespace anek

#endif // ANEK_CACHE_SUMMARYCACHE_H
