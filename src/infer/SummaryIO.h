//===- SummaryIO.h - Versioned wire codec for summaries ----------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The (de)serialization layer for what SOLVE produces and what it reads.
/// Two blob kinds share one envelope:
///
///  - a *snapshot* freezes the evidence state of the whole summary store
///    (per target: the own-body and per-call-site fixed-point log-odds
///    rows, sites keyed by declaration index), so stores holding equal
///    evidence encode to equal bytes. Tests compare runs by these bytes.
///
///  - a *cache entry* (src/cache/) seals one SolveOutcome record behind
///    an echo of the content key it is filed under.
///
/// SolveOutcome is the one form a SOLVE result takes: the engine's jobs
/// return it, the in-run memo stores it and the summary cache seals it.
/// It names its method by declaration index and carries its evidence as
/// bare odds vectors in the order of the method's summary applications,
/// which the engine builds once per run and never writes down. Both are
/// stable across runs over the same source: the cache key's prefix
/// digests every type's method count and ordered method signatures, the
/// method's SCC chain and its index, so an edit that shifts any index, or
/// changes which targets a method's model applies, changes the key.
///
/// Envelope: magic, version, kind, payload length, FNV-1a checksum, then
/// the payload. Decoding is defensive end to end: truncated headers,
/// wrong versions, oversized declared lengths and checksum mismatches all
/// come back as Status errors. A damaged cache entry costs a cache miss;
/// it can never crash the reader or smuggle in a short read.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_SUMMARYIO_H
#define ANEK_INFER_SUMMARYIO_H

#include "factor/Solvers.h"
#include "infer/Summary.h"
#include "lang/Ast.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anek {
namespace summaryio {

/// Bump on any layout change, and on any change to what a SOLVE computes
/// from the same inputs (the solver cascade included): decoders reject
/// every other version, and the cache's environment digest folds it in,
/// so entries an older build wrote read back as invalidated instead of
/// replaying that build's results.
constexpr uint32_t WireVersion = 8;

/// What a sealed blob carries. The kind is part of the envelope so a
/// snapshot can never be mistaken for a cache entry. The values are part
/// of the cache's on-disk format; 2 is retired.
enum class BlobKind : uint32_t {
  Snapshot = 1,
  /// One memoized SOLVE result of the incremental summary cache
  /// (src/cache/): a key echo plus one SolveOutcome record.
  CacheEntry = 3,
};

/// Hard cap on a payload's declared length. A corrupt length field must
/// bound allocation, not drive it.
constexpr uint64_t MaxBlobBytes = uint64_t(1) << 30;

/// Wraps \p Payload in the versioned, checksummed envelope.
std::string sealBlob(BlobKind Kind, std::string Payload);

/// Validates the envelope and returns the payload. Errors (all
/// ErrorCode::InvalidArgument except the oversize case, which is
/// ResourceExhausted): truncated header, bad magic, wrong version,
/// unexpected kind, declared length over MaxBlobBytes or disagreeing
/// with the actual size, checksum mismatch.
Expected<std::string> openBlob(std::string_view Blob, BlobKind ExpectKind);

/// Everything one SOLVE of one method produced: a MethodReport mirror,
/// the run-statistics contributions and the deferred summary updates.
struct SolveOutcome {
  uint32_t DeclIndex = 0;

  /// Mirror of MethodReport::Failed/Error (merged as a skip). Failed
  /// outcomes are never cached: a failure must re-run, not replay.
  bool Failed = false;
  std::string Error;

  /// MethodReport mirror: solver cascade outcome. CascadeExit as its
  /// enum value; non-zero exactly when the cascade ran (a fallback
  /// solve).
  uint8_t Exit = 0;
  std::string Reason;
  SolveReport Solve;
  uint32_t Solves = 0;

  /// Run-statistics contributions. SolveSeconds is what the solving pick
  /// paid; a replay (memo or cache hit) reports 0. The record codec does
  /// not carry it, so a decoded record reads 0 and a cache log holds no
  /// clock reading.
  uint64_t Variables = 0;
  uint64_t Factors = 0;
  double SolveSeconds = 0.0;

  /// The deferred summary updates: one odds vector per summary
  /// application of the method's model, in application order, each with
  /// one multiplier per tracked variable of the application's target.
  /// Which target and which evidence source (own body or call site) a
  /// vector goes to is the application's, so the record does not say.
  std::vector<std::vector<double>> Odds;
};

/// Serializes the evidence state of \p Summaries (sealed Snapshot blob).
/// Iteration is declaration-index order (MethodDeclMap) and each
/// target's sites are CallSiteOrder-ordered, so equal stores encode to
/// equal bytes.
std::string encodeSnapshot(const MethodDeclMap<MethodSummary> &Summaries);

/// Serializes one memoized SOLVE result (sealed CacheEntry blob). \p Key
/// — the content key the entry is filed under — is echoed into the
/// checksummed payload: the cache log frames each record behind a key no
/// checksum covers, so a record whose framing key was damaged cannot
/// replay as a different entry.
std::string encodeCacheEntry(uint64_t Key, const SolveOutcome &Entry);

/// Decodes a cache-entry blob, requiring its echoed key to equal
/// \p ExpectKey. Structural validation only (the envelope plus bounds);
/// semantic validation against the program — is the record the
/// method's, does it hold one odds vector of the right arity per
/// application — happens where the application lists live (the engine's
/// validateOutcome). Callers classify any error as a corrupt cache entry
/// — a miss, never a failure of the run.
Expected<SolveOutcome> decodeCacheEntry(std::string_view Blob,
                                        uint64_t ExpectKey);

} // namespace summaryio
} // namespace anek

#endif // ANEK_INFER_SUMMARYIO_H
