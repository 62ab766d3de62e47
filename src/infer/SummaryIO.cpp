//===- SummaryIO.cpp - Versioned wire codec for summaries ------------------===//

#include "infer/SummaryIO.h"

#include "support/WireFormat.h"

using namespace anek;
using namespace anek::summaryio;

namespace anek {

// The codec's window into TargetSummary (friend; see Summary.h).
struct SummaryWireAccess {
  static const std::vector<int64_t> &self(const TargetSummary &T) {
    return T.Self;
  }
  static const std::vector<CallSiteKey> &sites(const TargetSummary &T) {
    return T.Sites;
  }
  /// One size()-stride row per entry of sites().
  static const std::vector<int64_t> &siteRows(const TargetSummary &T) {
    return T.SiteRows;
  }
};

} // namespace anek

namespace {

/// "ANEKSUM1" as a little-endian u64.
constexpr uint64_t BlobMagic = 0x314D55534B454E41ULL;
/// magic(8) + version(4) + kind(4) + length(8) + checksum(8).
constexpr size_t HeaderBytes = 32;

Status corrupt(const std::string &What) {
  return Status::error(ErrorCode::InvalidArgument,
                       "summary blob rejected: " + What);
}

//===----------------------------------------------------------------------===//
// Snapshot payload
//===----------------------------------------------------------------------===//

void encodeTarget(wire::Writer &W,
                  const std::optional<TargetSummary> &Target) {
  W.u8(Target.has_value() ? 1 : 0);
  if (!Target)
    return;
  W.u32(static_cast<uint32_t>(Target->size()));
  const std::vector<int64_t> &Self = SummaryWireAccess::self(*Target);
  W.u32(static_cast<uint32_t>(Self.size()));
  for (int64_t V : Self)
    W.u64(static_cast<uint64_t>(V));
  const std::vector<CallSiteKey> &Sites = SummaryWireAccess::sites(*Target);
  const int64_t *Row = SummaryWireAccess::siteRows(*Target).data();
  W.u32(static_cast<uint32_t>(Sites.size()));
  for (const CallSiteKey &Site : Sites) {
    W.u32(Site.first ? Site.first->DeclIndex : 0);
    W.u32(Site.second);
    for (size_t I = 0; I != Target->size(); ++I)
      W.u64(static_cast<uint64_t>(*Row++));
  }
}

//===----------------------------------------------------------------------===//
// Outcome payload
//===----------------------------------------------------------------------===//

void encodeSolveReport(wire::Writer &W, const SolveReport &Solve) {
  W.u8(Solve.Converged ? 1 : 0);
  W.f64(Solve.Residual);
  W.u64(Solve.Iterations);
  W.u64(Solve.Updates);
  W.u64(Solve.SkippedUpdates);
  W.str(Solve.Reason);
}

bool decodeSolveReport(wire::Reader &R, SolveReport &Solve) {
  uint8_t Converged = 0;
  uint64_t Iterations = 0;
  bool Ok = R.u8(Converged) && R.f64(Solve.Residual) && R.u64(Iterations) &&
            R.u64(Solve.Updates) && R.u64(Solve.SkippedUpdates) &&
            R.str(Solve.Reason);
  Solve.Converged = Converged != 0;
  Solve.Iterations = static_cast<unsigned>(Iterations);
  return Ok;
}

/// The record codec: a cache entry carries one SolveOutcome record in
/// exactly this layout. It leaves out the wall-clock SolveSeconds, so
/// equal solves encode to equal bytes.
void encodeOutcome(wire::Writer &W, const SolveOutcome &O) {
  W.u32(O.DeclIndex);
  W.u8(O.Failed ? 1 : 0);
  W.str(O.Error);
  W.u8(O.Exit);
  W.str(O.Reason);
  encodeSolveReport(W, O.Solve);
  W.u32(O.Solves);
  W.u64(O.Variables);
  W.u64(O.Factors);
  W.u32(static_cast<uint32_t>(O.Odds.size()));
  for (const std::vector<double> &Odds : O.Odds) {
    W.u32(static_cast<uint32_t>(Odds.size()));
    for (double V : Odds)
      W.f64(V);
  }
}

Status decodeOutcome(wire::Reader &R, SolveOutcome &O) {
  uint8_t Failed = 0;
  if (!(R.u32(O.DeclIndex) && R.u8(Failed) && R.str(O.Error) &&
        R.u8(O.Exit) && R.str(O.Reason)))
    return corrupt("truncated outcome record");
  O.Failed = Failed != 0;
  if (!decodeSolveReport(R, O.Solve))
    return corrupt("truncated solve report");
  if (!(R.u32(O.Solves) && R.u64(O.Variables) && R.u64(O.Factors)))
    return corrupt("truncated outcome statistics");
  uint32_t VectorCount = 0;
  if (!R.count(VectorCount, 4))
    return corrupt("truncated odds vector count");
  O.Odds.resize(VectorCount);
  for (std::vector<double> &Odds : O.Odds) {
    uint32_t OddsCount = 0;
    if (!R.count(OddsCount, 8))
      return corrupt("truncated odds count");
    Odds.resize(OddsCount);
    for (double &V : Odds)
      if (!R.f64(V))
        return corrupt("truncated odds");
  }
  return Status::ok();
}

} // namespace

//===----------------------------------------------------------------------===//
// Envelope
//===----------------------------------------------------------------------===//

std::string summaryio::sealBlob(BlobKind Kind, std::string Payload) {
  wire::Writer W;
  W.u64(BlobMagic);
  W.u32(WireVersion);
  W.u32(static_cast<uint32_t>(Kind));
  W.u64(Payload.size());
  W.u64(wire::fnv1a64(Payload));
  std::string Blob = W.take();
  Blob += Payload;
  return Blob;
}

Expected<std::string> summaryio::openBlob(std::string_view Blob,
                                          BlobKind ExpectKind) {
  if (Blob.size() < HeaderBytes)
    return corrupt("truncated header (" + std::to_string(Blob.size()) +
                   " of " + std::to_string(HeaderBytes) + " bytes)");
  wire::Reader R(Blob.substr(0, HeaderBytes));
  uint64_t Magic = 0, Length = 0, Checksum = 0;
  uint32_t Version = 0, Kind = 0;
  R.u64(Magic);
  R.u32(Version);
  R.u32(Kind);
  R.u64(Length);
  R.u64(Checksum);
  if (Magic != BlobMagic)
    return corrupt("bad magic");
  if (Version != WireVersion)
    return corrupt("unsupported wire version " + std::to_string(Version) +
                   " (this build speaks version " +
                   std::to_string(WireVersion) + ")");
  if (Kind != static_cast<uint32_t>(ExpectKind))
    return corrupt("unexpected blob kind " + std::to_string(Kind) +
                   " (want " +
                   std::to_string(static_cast<uint32_t>(ExpectKind)) + ")");
  if (Length > MaxBlobBytes)
    return Status::error(ErrorCode::ResourceExhausted,
                         "summary blob rejected: declared payload of " +
                             std::to_string(Length) + " bytes exceeds the " +
                             std::to_string(MaxBlobBytes) + "-byte cap");
  if (Length != Blob.size() - HeaderBytes)
    return corrupt("payload length mismatch (header declares " +
                   std::to_string(Length) + " bytes, " +
                   std::to_string(Blob.size() - HeaderBytes) + " present)");
  std::string_view Payload = Blob.substr(HeaderBytes);
  if (wire::fnv1a64(Payload) != Checksum)
    return corrupt("checksum mismatch (payload damaged)");
  return std::string(Payload);
}

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

std::string
summaryio::encodeSnapshot(const MethodDeclMap<MethodSummary> &Summaries) {
  wire::Writer W;
  W.u32(static_cast<uint32_t>(Summaries.size()));
  for (const auto &[Method, Summary] : Summaries) {
    W.u32(Method->DeclIndex);
    encodeTarget(W, Summary.RecvPre);
    encodeTarget(W, Summary.RecvPost);
    W.u32(static_cast<uint32_t>(Summary.ParamPre.size()));
    for (const auto &Target : Summary.ParamPre)
      encodeTarget(W, Target);
    W.u32(static_cast<uint32_t>(Summary.ParamPost.size()));
    for (const auto &Target : Summary.ParamPost)
      encodeTarget(W, Target);
    encodeTarget(W, Summary.Result);
  }
  return sealBlob(BlobKind::Snapshot, W.take());
}

//===----------------------------------------------------------------------===//
// Cache entries
//===----------------------------------------------------------------------===//

std::string summaryio::encodeCacheEntry(uint64_t Key,
                                        const SolveOutcome &Entry) {
  wire::Writer W;
  W.u64(Key);
  encodeOutcome(W, Entry);
  return sealBlob(BlobKind::CacheEntry, W.take());
}

Expected<SolveOutcome> summaryio::decodeCacheEntry(std::string_view Blob,
                                                   uint64_t ExpectKey) {
  Expected<std::string> Payload = openBlob(Blob, BlobKind::CacheEntry);
  if (!Payload)
    return Payload.status();
  wire::Reader R(*Payload);
  uint64_t Key = 0;
  if (!R.u64(Key))
    return corrupt("truncated cache key");
  if (Key != ExpectKey)
    return corrupt("cache key echo mismatch (entry filed under a "
                   "different content key)");
  SolveOutcome Entry;
  if (Status S = decodeOutcome(R, Entry); !S)
    return S;
  if (!R.done())
    return corrupt("trailing bytes after the cached outcome");
  return Entry;
}
