//===- Wire.cpp - The anek-shard-v2 framed pipe protocol --------------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/Wire.h"

#include "support/Subprocess.h"
#include "support/WireFormat.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unistd.h>

using namespace anek;
using namespace anek::shard;

namespace {

Status malformed(const std::string &What) {
  return Status::error(ErrorCode::InvalidArgument,
                       "shard frame rejected: " + What);
}

bool knownFrameType(uint16_t Raw) {
  return Raw >= static_cast<uint16_t>(FrameType::Init) &&
         Raw <= static_cast<uint16_t>(FrameType::Telemetry);
}

/// The effective payload cap for a connection: 0 means the protocol
/// default, anything else is clamped into [floor, default] so a mis-set
/// knob can neither disable the bound nor starve the protocol.
uint64_t effectiveCap(uint64_t MaxPayload) {
  if (MaxPayload == 0 || MaxPayload > MaxFramePayload)
    return MaxFramePayload;
  return std::max(MaxPayload, MinConfigurableFramePayload);
}

/// Validates a decoded header. \p Available is the payload byte count
/// actually present (the in-memory path); the pipe path passes the
/// declared length through after the cap check and validates the checksum
/// once the payload has been read.
Status checkHeader(uint32_t Magic, uint16_t Version, uint16_t RawType,
                   uint64_t PayloadLen, uint64_t MaxPayload) {
  if (Magic != FrameMagic)
    return malformed("bad magic");
  if (Version != ProtocolVersion)
    return malformed("unsupported protocol version " +
                     std::to_string(Version));
  if (!knownFrameType(RawType))
    return malformed("unknown frame type " + std::to_string(RawType));
  if (PayloadLen > effectiveCap(MaxPayload))
    return Status::error(ErrorCode::ResourceExhausted,
                         "shard frame rejected: declared payload of " +
                             std::to_string(PayloadLen) +
                             " bytes exceeds the frame cap");
  return Status::ok();
}

double secondsLeft(std::chrono::steady_clock::time_point DeadlineAt,
                   bool Unlimited) {
  if (Unlimited)
    return -1.0;
  return std::chrono::duration<double>(DeadlineAt -
                                       std::chrono::steady_clock::now())
      .count();
}

/// readFull under a frame-wide deadline: waits for readability with the
/// remaining budget before every read(), so a peer that stalls mid-frame
/// still trips DeadlineExceeded instead of blocking forever.
Status readFullWithin(int Fd, void *Buffer, size_t Size,
                      std::chrono::steady_clock::time_point DeadlineAt,
                      bool Unlimited) {
  char *Out = static_cast<char *>(Buffer);
  size_t Done = 0;
  while (Done < Size) {
    double Left = secondsLeft(DeadlineAt, Unlimited);
    if (!Unlimited && Left <= 0.0)
      return Status::error(ErrorCode::DeadlineExceeded,
                           "shard frame read timed out");
    if (Status S = subprocess::waitReadable(Fd, Left); !S)
      return S;
    ssize_t N = ::read(Fd, Out + Done, Size - Done);
    if (N > 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (N == 0)
      return Status::error(ErrorCode::WorkerLost,
                           "pipe closed mid-frame (peer died)");
    if (errno == EINTR)
      continue;
    return Status::error(ErrorCode::Internal,
                         std::string("read failed: ") + std::strerror(errno));
  }
  return Status::ok();
}

} // namespace

const char *shard::frameTypeName(FrameType Type) {
  switch (Type) {
  case FrameType::Init:
    return "init";
  case FrameType::Task:
    return "task";
  case FrameType::Result:
    return "result";
  case FrameType::Heartbeat:
    return "heartbeat";
  case FrameType::Shutdown:
    return "shutdown";
  case FrameType::Error:
    return "error";
  case FrameType::Telemetry:
    return "telemetry";
  }
  return "unknown";
}

std::string shard::encodeFrame(FrameType Type, std::string_view Payload) {
  wire::Writer W;
  W.u32(FrameMagic);
  W.u16(ProtocolVersion);
  W.u16(static_cast<uint16_t>(Type));
  W.u64(Payload.size());
  W.u64(wire::fnv1a64(Payload));
  std::string Out = W.take();
  Out.append(Payload.data(), Payload.size());
  return Out;
}

Expected<Frame> shard::parseFrame(std::string_view Bytes,
                                  uint64_t MaxPayload) {
  if (Bytes.size() < FrameHeaderBytes)
    return malformed("truncated header (" + std::to_string(Bytes.size()) +
                     " of " + std::to_string(FrameHeaderBytes) + " bytes)");
  wire::Reader R(Bytes.substr(0, FrameHeaderBytes));
  uint32_t Magic = 0;
  uint16_t Version = 0, RawType = 0;
  uint64_t PayloadLen = 0, Checksum = 0;
  R.u32(Magic);
  R.u16(Version);
  R.u16(RawType);
  R.u64(PayloadLen);
  R.u64(Checksum);
  if (!R.done())
    return malformed("unreadable header");
  if (Status S = checkHeader(Magic, Version, RawType, PayloadLen, MaxPayload);
      !S)
    return S;
  if (Bytes.size() - FrameHeaderBytes != PayloadLen)
    return malformed("declared payload of " + std::to_string(PayloadLen) +
                     " bytes, got " +
                     std::to_string(Bytes.size() - FrameHeaderBytes));
  std::string_view Payload = Bytes.substr(FrameHeaderBytes);
  if (wire::fnv1a64(Payload) != Checksum)
    return malformed("checksum mismatch");
  Frame F;
  F.Type = static_cast<FrameType>(RawType);
  F.Payload.assign(Payload.data(), Payload.size());
  return F;
}

Status shard::writeFrame(int Fd, FrameType Type, std::string_view Payload) {
  std::string Bytes = encodeFrame(Type, Payload);
  return subprocess::writeFull(Fd, Bytes.data(), Bytes.size());
}

Expected<Frame> shard::readFrame(int Fd, double TimeoutSeconds,
                                 uint64_t MaxPayload) {
  bool Unlimited = TimeoutSeconds < 0.0;
  auto DeadlineAt =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(Unlimited ? 0.0 : TimeoutSeconds));

  char Header[FrameHeaderBytes];
  if (Status S = readFullWithin(Fd, Header, sizeof(Header), DeadlineAt,
                                Unlimited);
      !S)
    return S;
  wire::Reader R(std::string_view(Header, sizeof(Header)));
  uint32_t Magic = 0;
  uint16_t Version = 0, RawType = 0;
  uint64_t PayloadLen = 0, Checksum = 0;
  R.u32(Magic);
  R.u16(Version);
  R.u16(RawType);
  R.u64(PayloadLen);
  R.u64(Checksum);
  if (!R.done())
    return malformed("unreadable header");
  if (Status S = checkHeader(Magic, Version, RawType, PayloadLen, MaxPayload);
      !S)
    return S;

  Frame F;
  F.Type = static_cast<FrameType>(RawType);
  // Grow the payload buffer as bytes actually arrive instead of
  // pre-allocating the full declared length: a corrupt or hostile header
  // may declare anything up to the frame cap, and a multi-hundred-MB
  // allocation driven by 24 header bytes is an easy way to knock over the
  // coordinator before the checksum ever gets a say. With chunked reads
  // the allocation is bounded by bytes received (plus one chunk), so a
  // lying peer costs us at most what it actually sends.
  constexpr size_t ReadChunk = 64 * 1024;
  F.Payload.reserve(std::min<uint64_t>(PayloadLen, ReadChunk));
  while (F.Payload.size() < PayloadLen) {
    const size_t Prev = F.Payload.size();
    const size_t Step =
        static_cast<size_t>(std::min<uint64_t>(PayloadLen - Prev, ReadChunk));
    F.Payload.resize(Prev + Step);
    if (Status S = readFullWithin(Fd, F.Payload.data() + Prev, Step,
                                  DeadlineAt, Unlimited);
        !S)
      return S;
  }
  if (wire::fnv1a64(F.Payload) != Checksum)
    return malformed("checksum mismatch");
  return F;
}

// --- Init ----------------------------------------------------------------

std::string shard::encodeInit(const std::string &Source,
                              const InferOptions &Opts,
                              uint8_t CollectLevel) {
  wire::Writer W;
  W.str(Source);
  W.u32(Opts.MaxIters);
  W.f64(Opts.Threshold);
  W.f64(Opts.SummaryTolerance);
  W.u8(static_cast<uint8_t>(Opts.Solver));
  W.f64(Opts.SpecHi);
  W.f64(Opts.SpecLo);
  W.u8(Opts.RespectDeclared ? 1 : 0);
  W.u8(Opts.Fallback ? 1 : 0);
  W.f64(Opts.SolveBudgetSeconds);
  W.u64(Opts.Seed);
  W.str(Opts.FaultScope);
  const ConstraintOptions &C = Opts.Constraints;
  W.f64(C.L1Branch);
  W.f64(C.L1Split);
  W.f64(C.L2Incoming);
  W.f64(C.L3FieldWrite);
  W.f64(C.H1Ctor);
  W.f64(C.H2PrePost);
  W.f64(C.H3Create);
  W.f64(C.H4Setter);
  W.f64(C.H5Sync);
  W.f64(C.H6WeakPre);
  uint8_t Toggles = 0;
  Toggles |= C.EnableH1 ? 1u << 0 : 0;
  Toggles |= C.EnableH2 ? 1u << 1 : 0;
  Toggles |= C.EnableH3 ? 1u << 2 : 0;
  Toggles |= C.EnableH4 ? 1u << 3 : 0;
  Toggles |= C.EnableH5 ? 1u << 4 : 0;
  Toggles |= C.EnableH6 ? 1u << 5 : 0;
  Toggles |= C.LogicalOnly ? 1u << 6 : 0;
  Toggles |= C.EnableExclusivity ? 1u << 7 : 0;
  W.u8(Toggles);
  W.u8(C.KindMutex ? 1 : 0);
  W.f64(C.KindMutexProb);
  W.u8(CollectLevel);
  return W.take();
}

Status shard::decodeInit(std::string_view Payload, std::string &Source,
                         InferOptions &Opts, uint8_t *CollectLevel) {
  // The source text can legitimately be large; bound it by the frame cap
  // rather than the Reader's conservative string default.
  wire::Reader R(Payload);
  if (!R.str(Source, MaxFramePayload))
    return malformed("init source");
  uint8_t Solver = 0, RespectDeclared = 0, Fallback = 0;
  bool Ok = R.u32(Opts.MaxIters) && R.f64(Opts.Threshold) &&
            R.f64(Opts.SummaryTolerance) && R.u8(Solver) &&
            R.f64(Opts.SpecHi) && R.f64(Opts.SpecLo) &&
            R.u8(RespectDeclared) && R.u8(Fallback) &&
            R.f64(Opts.SolveBudgetSeconds) && R.u64(Opts.Seed) &&
            R.str(Opts.FaultScope);
  if (!Ok)
    return malformed("init options");
  if (Solver > static_cast<uint8_t>(SolverChoice::Exact))
    return malformed("init solver choice out of range");
  Opts.Solver = static_cast<SolverChoice>(Solver);
  Opts.RespectDeclared = RespectDeclared != 0;
  Opts.Fallback = Fallback != 0;
  ConstraintOptions &C = Opts.Constraints;
  uint8_t Toggles = 0, KindMutex = 0;
  Ok = R.f64(C.L1Branch) && R.f64(C.L1Split) && R.f64(C.L2Incoming) &&
       R.f64(C.L3FieldWrite) && R.f64(C.H1Ctor) && R.f64(C.H2PrePost) &&
       R.f64(C.H3Create) && R.f64(C.H4Setter) && R.f64(C.H5Sync) &&
       R.f64(C.H6WeakPre) && R.u8(Toggles) && R.u8(KindMutex) &&
       R.f64(C.KindMutexProb);
  if (!Ok)
    return malformed("init constraint options");
  uint8_t Level = 0;
  if (!R.u8(Level) || !R.done())
    return malformed("init telemetry level");
  if (Level > static_cast<uint8_t>(telemetry::TraceLevel::Solver))
    return malformed("init telemetry level out of range");
  if (CollectLevel)
    *CollectLevel = Level;
  C.EnableH1 = (Toggles & (1u << 0)) != 0;
  C.EnableH2 = (Toggles & (1u << 1)) != 0;
  C.EnableH3 = (Toggles & (1u << 2)) != 0;
  C.EnableH4 = (Toggles & (1u << 3)) != 0;
  C.EnableH5 = (Toggles & (1u << 4)) != 0;
  C.EnableH6 = (Toggles & (1u << 5)) != 0;
  C.LogicalOnly = (Toggles & (1u << 6)) != 0;
  C.EnableExclusivity = (Toggles & (1u << 7)) != 0;
  C.KindMutex = KindMutex != 0;
  return Status::ok();
}

// --- Task ----------------------------------------------------------------

std::string shard::encodeTask(const std::vector<unsigned> &DeclIndices,
                              std::string_view Snapshot,
                              const TaskMeta &Meta) {
  wire::Writer W;
  W.u32(static_cast<uint32_t>(DeclIndices.size()));
  for (unsigned Index : DeclIndices)
    W.u32(Index);
  W.str(Snapshot);
  W.u64(Meta.ParentFlowId);
  W.u32(Meta.Wave);
  W.u64(static_cast<uint64_t>(Meta.DispatchUs));
  return W.take();
}

Status shard::decodeTask(std::string_view Payload,
                         std::vector<unsigned> &DeclIndices,
                         std::string &Snapshot, TaskMeta *Meta) {
  wire::Reader R(Payload);
  uint32_t Count = 0;
  if (!R.count(Count, sizeof(uint32_t)))
    return malformed("task method count");
  DeclIndices.clear();
  DeclIndices.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    uint32_t Index = 0;
    if (!R.u32(Index))
      return malformed("task method index");
    DeclIndices.push_back(Index);
  }
  if (!R.str(Snapshot, MaxFramePayload))
    return malformed("task snapshot");
  TaskMeta M;
  uint64_t DispatchUs = 0;
  if (!R.u64(M.ParentFlowId) || !R.u32(M.Wave) || !R.u64(DispatchUs) ||
      !R.done())
    return malformed("task dispatch identity");
  M.DispatchUs = static_cast<int64_t>(DispatchUs);
  if (Meta)
    *Meta = M;
  return Status::ok();
}

// --- Telemetry -----------------------------------------------------------
//
// The blob carries its own version byte so its schema can evolve without
// another protocol bump; the frame checksum already covers integrity.

namespace {
constexpr uint8_t TelemetryBlobVersion = 1;
} // namespace

std::string shard::encodeTelemetry(const TelemetryBlob &Blob) {
  wire::Writer W;
  W.u8(TelemetryBlobVersion);
  W.u32(Blob.Pid);
  W.u32(Blob.Wave);
  W.u64(Blob.ParentFlowId);
  W.u64(static_cast<uint64_t>(Blob.TaskStartUs));
  W.u32(static_cast<uint32_t>(Blob.Events.size()));
  for (const telemetry::EventRecord &E : Blob.Events) {
    W.str(E.Name);
    W.str(E.Category);
    W.u8(static_cast<uint8_t>(E.Phase));
    W.u64(static_cast<uint64_t>(E.TsUs));
    W.u64(static_cast<uint64_t>(E.DurUs));
    W.u32(E.Tid);
    W.u32(E.Depth);
    W.u64(E.FlowId);
    W.str(E.Args);
  }
  const telemetry::MetricsSnapshot &M = Blob.Metrics;
  W.u32(static_cast<uint32_t>(M.Counters.size()));
  for (const auto &[Name, V] : M.Counters) {
    W.str(Name);
    W.u64(V);
  }
  W.u32(static_cast<uint32_t>(M.Gauges.size()));
  for (const auto &[Name, V] : M.Gauges) {
    W.str(Name);
    W.f64(V);
  }
  W.u32(static_cast<uint32_t>(M.Histograms.size()));
  for (const auto &[Name, H] : M.Histograms) {
    W.str(Name);
    W.u64(H.Count);
    W.f64(H.Sum);
    W.f64(H.Min);
    W.f64(H.Max);
    W.u32(static_cast<uint32_t>(H.Buckets.size()));
    for (uint64_t B : H.Buckets)
      W.u64(B);
  }
  return W.take();
}

Status shard::decodeTelemetry(std::string_view Payload, TelemetryBlob &Blob) {
  wire::Reader R(Payload);
  uint8_t Version = 0;
  if (!R.u8(Version))
    return malformed("telemetry blob header");
  if (Version != TelemetryBlobVersion)
    return malformed("unsupported telemetry blob version " +
                     std::to_string(Version));
  uint64_t TaskStartUs = 0;
  if (!R.u32(Blob.Pid) || !R.u32(Blob.Wave) || !R.u64(Blob.ParentFlowId) ||
      !R.u64(TaskStartUs))
    return malformed("telemetry blob header");
  Blob.TaskStartUs = static_cast<int64_t>(TaskStartUs);

  uint32_t NumEvents = 0;
  // Each event needs at least 3 string length prefixes + the fixed
  // fields; the per-element floor keeps a corrupt count from driving a
  // giant reserve.
  if (!R.count(NumEvents, 3 * sizeof(uint32_t) + 29))
    return malformed("telemetry event count");
  Blob.Events.clear();
  Blob.Events.reserve(NumEvents);
  for (uint32_t I = 0; I != NumEvents; ++I) {
    telemetry::EventRecord E;
    uint8_t Phase = 0;
    uint64_t TsUs = 0, DurUs = 0;
    bool Ok = R.str(E.Name) && R.str(E.Category) && R.u8(Phase) &&
              R.u64(TsUs) && R.u64(DurUs) && R.u32(E.Tid) && R.u32(E.Depth) &&
              R.u64(E.FlowId) && R.str(E.Args);
    if (!Ok)
      return malformed("telemetry event");
    E.Phase = static_cast<char>(Phase);
    E.TsUs = static_cast<int64_t>(TsUs);
    E.DurUs = static_cast<int64_t>(DurUs);
    Blob.Events.push_back(std::move(E));
  }

  telemetry::MetricsSnapshot &M = Blob.Metrics;
  uint32_t N = 0;
  if (!R.count(N, sizeof(uint32_t) + sizeof(uint64_t)))
    return malformed("telemetry counter count");
  M.Counters.clear();
  for (uint32_t I = 0; I != N; ++I) {
    std::string Name;
    uint64_t V = 0;
    if (!R.str(Name) || !R.u64(V))
      return malformed("telemetry counter");
    M.Counters[std::move(Name)] = V;
  }
  if (!R.count(N, sizeof(uint32_t) + sizeof(uint64_t)))
    return malformed("telemetry gauge count");
  M.Gauges.clear();
  for (uint32_t I = 0; I != N; ++I) {
    std::string Name;
    double V = 0.0;
    if (!R.str(Name) || !R.f64(V))
      return malformed("telemetry gauge");
    M.Gauges[std::move(Name)] = V;
  }
  if (!R.count(N, 2 * sizeof(uint32_t) + 4 * sizeof(uint64_t)))
    return malformed("telemetry histogram count");
  M.Histograms.clear();
  for (uint32_t I = 0; I != N; ++I) {
    std::string Name;
    telemetry::HistogramSnapshot H;
    uint32_t NumBuckets = 0;
    bool Ok = R.str(Name) && R.u64(H.Count) && R.f64(H.Sum) &&
              R.f64(H.Min) && R.f64(H.Max) &&
              R.count(NumBuckets, sizeof(uint64_t));
    if (!Ok || NumBuckets > telemetry::Histogram::NumBuckets)
      return malformed("telemetry histogram");
    H.Buckets.resize(NumBuckets);
    for (uint32_t B = 0; B != NumBuckets; ++B)
      if (!R.u64(H.Buckets[B]))
        return malformed("telemetry histogram bucket");
    M.Histograms[std::move(Name)] = std::move(H);
  }
  if (!R.done())
    return malformed("telemetry blob trailer");
  return Status::ok();
}
