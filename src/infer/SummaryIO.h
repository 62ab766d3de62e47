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
/// It names methods by declaration index, which is stable across runs
/// over the same source: the cache's environment hash digests every
/// type's method count and ordered method signatures, so an edit that
/// shifts any index changes every cache key.
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
constexpr uint32_t WireVersion = 6;

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

/// Which interface target of a method summary an update addresses.
enum class SummaryTargetRole : uint8_t {
  RecvPre = 0,
  RecvPost,
  ParamPre,
  ParamPost,
  Result,
};

/// "recv-pre" / "param-post" / ... for diagnostics.
const char *summaryTargetRoleName(SummaryTargetRole Role);

/// One deferred summary update: evidence for one interface target of one
/// method. Methods and call sites are named by declaration index, never
/// by pointer.
struct SummaryUpdate {
  /// Declaration index of the method whose summary is updated.
  uint32_t OwnerDeclIndex = 0;
  SummaryTargetRole Role = SummaryTargetRole::RecvPre;
  /// Parameter position for the Param* roles; 0 otherwise.
  uint32_t ParamIndex = 0;
  /// True: own-body evidence (setSelfOdds). False: call-site evidence.
  bool IsSelf = true;
  /// Call-site key for site evidence: the calling method's declaration
  /// index and the site's index within that caller's PFG.
  uint32_t SiteCallerDeclIndex = 0;
  uint32_t SiteIndex = 0;
  /// Odds multipliers, one per tracked variable of the target.
  std::vector<double> Odds;
};

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
  /// paid; a replay (memo or cache hit) reports 0. The record codec
  /// carries neither it nor Solve.Seconds, so a decoded record reads 0
  /// for both and a cache log holds no clock reading.
  uint64_t Variables = 0;
  uint64_t Factors = 0;
  double SolveSeconds = 0.0;

  std::vector<SummaryUpdate> Updates;
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
/// semantic validation against the program — do these declaration
/// indices exist, do arities match — happens where the decl-index table
/// lives (the engine's validateOutcome). Callers classify any error as a
/// corrupt cache entry — a miss, never a failure of the run.
Expected<SolveOutcome> decodeCacheEntry(std::string_view Blob,
                                        uint64_t ExpectKey);

} // namespace summaryio
} // namespace anek

#endif // ANEK_INFER_SUMMARYIO_H
