//===- Wire.h - The anek-shard-v1 framed pipe protocol -----------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator <-> worker protocol of the sharded execution tier
/// (DESIGN.md, "Sharded execution and failure model"). A connection is a
/// pair of pipes carrying *frames*:
///
///   header  u32 magic | u16 version | u16 type | u64 payload-len | u64 fnv
///   payload payload-len bytes
///
/// and a session is:
///
///   coordinator -> worker   Init      source text + algorithm options
///                                     + telemetry collection level
///   coordinator -> worker   Task      decl indices + summary snapshot
///                                     + dispatch identity (parent flow
///                                     id, wave ordinal, dispatch clock)
///   worker -> coordinator   Heartbeat every ~200ms while a task runs
///   worker -> coordinator   Telemetry trace spans + metrics deltas the
///                                     task produced (collection on only)
///   worker -> coordinator   Result    sealed outcomes blob
///   worker -> coordinator   Error     message (structural failure)
///   coordinator -> worker   Shutdown  drain and exit
///
/// Decoding is defensive end to end: a truncated header, wrong magic or
/// version, an oversized declared length, or a checksum mismatch all come
/// back as Status errors (never a crash, never an unbounded allocation).
/// The coordinator classifies any unreadable frame as a lost worker —
/// kill, respawn, re-dispatch — so a corrupt byte stream costs one
/// attempt, not the run.
///
/// readFrame takes a deadline covering the *whole* frame, re-armed only
/// between frames: a worker stopped mid-payload trips the same timeout as
/// one that never wrote a byte, so hang detection has no blind spot.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_WIRE_H
#define ANEK_SHARD_WIRE_H

#include "infer/AnekInfer.h"
#include "support/Metrics.h"
#include "support/Status.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anek {
namespace shard {

/// "ANKS" little-endian; rejects non-frame bytes immediately.
constexpr uint32_t FrameMagic = 0x534B4E41u;
/// The `anek-shard-v1` protocol version; decoders reject all others.
/// Version 2 added the Telemetry frame, the Init collection level and the
/// Task dispatch-identity fields; v1 peers are rejected outright (both
/// ends are always the same re-exec'd binary, so a mismatch means a torn
/// stream or a foreign writer, not a legitimate old peer).
constexpr uint16_t ProtocolVersion = 2;
/// Default hard cap on a frame's declared payload length. A corrupt
/// length field must bound allocation, not drive it. readFrame and
/// parseFrame accept a tighter per-connection cap (the driver's
/// `--shard-max-frame-bytes`); this constant is the ceiling and the
/// default.
constexpr uint64_t MaxFramePayload = uint64_t(1) << 30;
/// Floor for a configured frame cap: a header plus a small payload must
/// always fit, or the protocol cannot even carry its own Error frames.
constexpr uint64_t MinConfigurableFramePayload = 4096;
/// Fixed header size (see file comment for the layout).
constexpr size_t FrameHeaderBytes = 24;
/// How often a busy worker emits Heartbeat frames. Protocol-level so
/// coordinators can size their deadline as a multiple of it.
constexpr double HeartbeatIntervalSeconds = 0.2;

enum class FrameType : uint16_t {
  Init = 1,
  Task = 2,
  Result = 3,
  Heartbeat = 4,
  Shutdown = 5,
  Error = 6,
  Telemetry = 7,
};

/// "init" / "task" / ... for diagnostics.
const char *frameTypeName(FrameType Type);

struct Frame {
  FrameType Type = FrameType::Heartbeat;
  std::string Payload;
};

/// Renders the header + payload of one frame.
std::string encodeFrame(FrameType Type, std::string_view Payload);

/// Decodes one complete frame from \p Bytes (tests and fuzz-style corrupt
/// suites; the pipe path below shares the same validation). Errors:
/// truncated header, bad magic, unsupported version, unknown type,
/// payload length over the cap or disagreeing with the bytes present,
/// checksum mismatch. \p MaxPayload = 0 means the MaxFramePayload
/// default; smaller values tighten the allocation bound per connection.
Expected<Frame> parseFrame(std::string_view Bytes, uint64_t MaxPayload = 0);

/// Writes one frame to \p Fd (EINTR-safe, EPIPE -> WorkerLost).
Status writeFrame(int Fd, FrameType Type, std::string_view Payload);

/// Reads one frame from \p Fd with \p TimeoutSeconds covering the whole
/// frame (< 0 = never time out). Errors: DeadlineExceeded on timeout,
/// WorkerLost on EOF, and the parseFrame vocabulary for malformed bytes.
/// \p MaxPayload as in parseFrame.
Expected<Frame> readFrame(int Fd, double TimeoutSeconds,
                          uint64_t MaxPayload = 0);

// --- Payload codecs ------------------------------------------------------
//
// Init and Task payloads use the same wire::Writer/Reader substrate as
// the summary blobs; Result payloads are summaryio outcome blobs verbatim
// (sealed and checksummed in their own right); Error payloads are the raw
// message text; Heartbeat and Shutdown carry no payload.

/// Everything a worker needs to become the coordinator's algorithmic
/// twin: the program source plus the InferOptions knobs that change what
/// analysis computes. Scheduling knobs (Parallelism, Pool, governors) are
/// deliberately absent — a worker always analyzes its shard sequentially.
/// \p CollectLevel is the coordinator's telemetry::TraceLevel as a raw
/// byte: non-zero asks the worker to collect at (at least) that level and
/// ship a Telemetry frame per task. Collection never changes Result
/// bytes, so this knob cannot perturb the determinism contract.
std::string encodeInit(const std::string &Source, const InferOptions &Opts,
                       uint8_t CollectLevel = 0);
Status decodeInit(std::string_view Payload, std::string &Source,
                  InferOptions &Opts, uint8_t *CollectLevel = nullptr);

/// Identity of one dispatch, carried by the Task frame so the worker's
/// spans can nest under the coordinator's dispatch span: the
/// coordinator-side flow id its dispatch span opened (0 = tracing off),
/// the engine wave ordinal, and the coordinator's trace clock at
/// dispatch (worker timestamps are shifted by DispatchUs minus the
/// worker's task-start time, aligning the two process clocks).
struct TaskMeta {
  uint64_t ParentFlowId = 0;
  uint32_t Wave = 0;
  int64_t DispatchUs = 0;
};

/// A shard dispatch: which methods (by declaration index, ascending) to
/// analyze against which summary snapshot (a sealed summaryio blob),
/// stamped with the dispatch identity above.
std::string encodeTask(const std::vector<unsigned> &DeclIndices,
                       std::string_view Snapshot,
                       const TaskMeta &Meta = {});
Status decodeTask(std::string_view Payload, std::vector<unsigned> &DeclIndices,
                  std::string &Snapshot, TaskMeta *Meta = nullptr);

/// The telemetry a worker ships alongside each Result when the Init
/// frame asked for collection: the trace events recorded since the last
/// ship and the metrics delta this task produced, stamped with the
/// worker's pid (its coordinator-side lane) and the echo of the Task's
/// dispatch identity. Loss semantics are best-effort by design: the
/// coordinator drops an unreadable Telemetry payload (counting it) and
/// the dispatch succeeds on the Result frame alone.
struct TelemetryBlob {
  uint32_t Pid = 0;
  uint32_t Wave = 0;
  uint64_t ParentFlowId = 0;
  int64_t TaskStartUs = 0; ///< Worker trace clock when the task began.
  std::vector<telemetry::EventRecord> Events;
  telemetry::MetricsSnapshot Metrics;
};

std::string encodeTelemetry(const TelemetryBlob &Blob);
Status decodeTelemetry(std::string_view Payload, TelemetryBlob &Blob);

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_WIRE_H
