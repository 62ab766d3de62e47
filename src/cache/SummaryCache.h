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
/// The cache is one map of sealed records (content key -> sealed
/// CacheEntry blob: summaryio envelope with magic, version, kind, length,
/// checksum and key echo) beside an index of the keys stored under each
/// qualified method name. A method keeps *every* key it was stored
/// under: the engine's fixpoint solves one method several times per run,
/// once per summary state, and a warm replay needs the whole trajectory,
/// not just the final state.
///
/// A directory cache holds one file, the append-only log
///
///   <dir>/summaries.anek-cache-v2   its own name as the header line, then
///                                   one "u64 key | str name | str blob"
///                                   record (wire::Writer framing) per
///                                   store
///
/// Opening loads every record that frames into the map, later records
/// winning; the first record that does not frame ends the parse, and the
/// file is cut back to the last whole record so later appends stay
/// reachable. A missing log, or a header of another name, starts a new
/// one: a directory an older layout filled reads as a cold cache.
///
/// Every defect a stale or tampered log can exhibit — a torn tail, bit
/// flips, a blob sealed by a different wire version, a damaged key — is
/// classified at lookup as a miss (CacheLookup::Corrupt, counted by the
/// engine), never as an error: a rotten cache costs a re-solve, not a
/// failed run. A failed append is absorbed too; the record then lives in
/// memory only.
///
/// An empty directory string keeps the cache purely in memory; records
/// still go through the sealed blob codec, so the corruption behavior is
/// identical to disk.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_CACHE_SUMMARYCACHE_H
#define ANEK_CACHE_SUMMARYCACHE_H

#include "infer/SolveCache.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>

namespace anek {
namespace cache {

/// Name of the log inside a cache directory and its header line; doubles
/// as the on-disk format version.
inline constexpr const char *LogFileName = "summaries.anek-cache-v2";

/// Thread-safe SolveCache over one directory (or memory). A single mutex
/// guards the maps and the log, so the engine may call lookup from
/// several wave jobs at once, and one instance may be shared by
/// concurrent runs.
class SummaryCache : public SolveCache {
public:
  /// Opens (and if needed creates) \p Dir and loads its log. An empty
  /// \p Dir selects the in-memory mode. Never fails: a directory that
  /// cannot hold the log behaves as an in-memory cache.
  explicit SummaryCache(const std::string &Dir);

  CacheLookup lookup(const std::string &MethodName, uint64_t Key,
                     CachedSolve &Out) override;
  void store(const std::string &MethodName, uint64_t Key,
             const CachedSolve &Entry) override;

  /// Number of records currently held (tests).
  size_t size() const;

private:
  mutable std::mutex Mutex;
  std::ofstream Log; ///< Open for appending in the directory mode.
  /// Qualified method name -> every content key stored for it (one per
  /// summary state its fixpoint trajectory visited).
  std::map<std::string, std::set<uint64_t>> Index;
  /// Content key -> sealed blob, decoded at lookup.
  std::map<uint64_t, std::string> Blobs;
};

} // namespace cache
} // namespace anek

#endif // ANEK_CACHE_SUMMARYCACHE_H
