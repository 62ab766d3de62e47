//===- shard_test.cpp - Crash-tolerant shard worker tier -------------------===//
//
// The sharded-execution suite (DESIGN.md, "Sharded execution and failure
// model"): the anek-shard-v2 payload codecs must round-trip, real worker
// processes must produce output byte-identical to in-process -j1, and the
// failure paths — SIGKILLed workers, SIGSTOPped (hung) workers, corrupted
// result frames — must cost re-dispatch attempts, never results. A shard
// that keeps killing workers must quarantine to in-process execution and
// surface as degraded(shard-quarantine) through the serving layer.
//
// These tests fork/exec the real `anek` binary as the worker process
// (ANEK_TOOL_PATH), so the wire protocol, heartbeats, and kill/reap paths
// are exercised against actual process death, not mocks. The one
// exception is an in-process executor that damages correct results, to
// pin the engine's validation of what an executor returns.
//
//===----------------------------------------------------------------------===//

#include "corpus/ExampleSources.h"
#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "serve/BatchRunner.h"
#include "serve/Serve.h"
#include "shard/ShardCoordinator.h"
#include "shard/Wire.h"
#include "support/FaultInject.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

using namespace anek;

namespace {

std::vector<std::string> workerArgv() {
  return {ANEK_TOOL_PATH, "--worker"};
}

/// Coordinator knobs tuned for tests: the real `anek` binary as worker,
/// fast backoff so faulted runs do not sleep through the suite.
shard::CoordinatorOptions testCoordinatorOptions(unsigned Workers = 2) {
  shard::CoordinatorOptions Co;
  Co.Workers = Workers;
  Co.WorkerArgv = workerArgv();
  Co.Retry.BaseDelaySeconds = 0.001;
  Co.Retry.MaxDelaySeconds = 0.005;
  return Co;
}

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

/// Runs inference and renders the annotated program — the byte-identity
/// oracle (the driver's stats trailer carries wall-clock noise; the
/// printed program must not). \p StatsOut receives the engine-merged
/// shard stats (wave-level counters live in InferResult, not the
/// coordinator).
std::string inferAndPrint(Program &Prog, const InferOptions &Opts,
                          ShardStats *StatsOut = nullptr) {
  InferResult Result = runAnekInfer(Prog, Opts);
  EXPECT_TRUE(Result.Aborted.isOk()) << Result.Aborted.str();
  if (StatsOut)
    *StatsOut = Result.Shard;
  PrintOptions PrintOpts;
  PrintOpts.SpecFor = [&](const MethodDecl &M) { return *Result.specFor(&M); };
  return printProgram(Prog, PrintOpts);
}

/// The in-process -j1 ground truth for \p Source.
std::string baselineOutput(const std::string &Source) {
  auto Prog = analyze(Source);
  InferOptions Opts;
  Opts.Parallelism = 1;
  return inferAndPrint(*Prog, Opts);
}

struct ShardRun {
  std::string Output;
  ShardStats Stats;
};

/// Runs \p Source through a ShardCoordinator with real worker processes.
ShardRun runSharded(const std::string &Source,
                    shard::CoordinatorOptions Co) {
  auto Prog = analyze(Source);
  InferOptions Opts;
  Opts.Parallelism = 1;
  shard::ShardCoordinator Coordinator(*Prog, Source, Opts, Co);
  Opts.ShardExec = &Coordinator;
  ShardRun Run;
  Run.Output = inferAndPrint(*Prog, Opts, &Run.Stats);
  return Run;
}

class ShardTest : public testing::Test {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

TEST_F(ShardTest, FrameCodecRoundTrips) {
  // Binary-safe payloads, including embedded NULs and an empty heartbeat.
  const std::string Binary("blob\0with\0nuls", 14);
  struct Case {
    shard::FrameType Type;
    std::string Payload;
  } Cases[] = {
      {shard::FrameType::Init, "source text"},
      {shard::FrameType::Task, Binary},
      {shard::FrameType::Result, std::string(4096, '\xab')},
      {shard::FrameType::Heartbeat, ""},
      {shard::FrameType::Shutdown, ""},
      {shard::FrameType::Error, "worker reported: boom"},
  };
  for (const Case &C : Cases) {
    std::string Bytes = shard::encodeFrame(C.Type, C.Payload);
    EXPECT_EQ(Bytes.size(), shard::FrameHeaderBytes + C.Payload.size());
    Expected<shard::Frame> F = shard::parseFrame(Bytes);
    ASSERT_TRUE(F.hasValue())
        << shard::frameTypeName(C.Type) << ": " << F.status().str();
    EXPECT_EQ(F->Type, C.Type);
    EXPECT_EQ(F->Payload, C.Payload);
  }
}

TEST_F(ShardTest, FrameDecodeRejectsMalformedHeaders) {
  // Header layout (little-endian): u32 magic, u16 version, u16 type,
  // u64 payload length, u64 checksum — 24 bytes, then the payload.
  const std::string Good =
      shard::encodeFrame(shard::FrameType::Result, "payload");
  auto Patched = [&](size_t Offset, uint64_t Value, size_t Bytes) {
    std::string B = Good;
    for (size_t I = 0; I != Bytes; ++I)
      B[Offset + I] = static_cast<char>((Value >> (8 * I)) & 0xff);
    return B;
  };
  std::string FlippedPayload = Good;
  FlippedPayload[shard::FrameHeaderBytes] ^= 0x01;
  struct Case {
    const char *Name;
    std::string Bytes;
    ErrorCode Want;
  } Cases[] = {
      {"truncated header", Good.substr(0, shard::FrameHeaderBytes - 1),
       ErrorCode::InvalidArgument},
      {"bad magic", Patched(0, 0xdeadbeefu, 4), ErrorCode::InvalidArgument},
      {"unsupported version", Patched(4, shard::ProtocolVersion + 1, 2),
       ErrorCode::InvalidArgument},
      {"unknown frame type", Patched(6, 0x7fu, 2),
       ErrorCode::InvalidArgument},
      // The first value past the last defined type (Telemetry = 7).
      {"frame type 8", Patched(6, 8u, 2), ErrorCode::InvalidArgument},
      // The oversized-length-header case: a 24-byte header may not drive
      // a giant allocation, so the cap check rejects it before any
      // payload handling.
      {"declared length over the frame cap",
       Patched(8, shard::MaxFramePayload + 1, 8),
       ErrorCode::ResourceExhausted},
      {"declared length disagrees with the bytes", Patched(8, 3, 8),
       ErrorCode::InvalidArgument},
      {"checksum mismatch", FlippedPayload, ErrorCode::InvalidArgument},
  };
  for (const Case &C : Cases) {
    Expected<shard::Frame> F = shard::parseFrame(C.Bytes);
    ASSERT_FALSE(F.hasValue()) << C.Name;
    EXPECT_EQ(F.status().code(), C.Want) << C.Name << ": "
                                         << F.status().str();
  }
}

TEST_F(ShardTest, ReadFrameBoundsAllocationByBytesReceived) {
  // The pipe-path twin of the oversized-length cases above: a peer that
  // *declares* a huge payload must not cost the coordinator that
  // allocation up front.
  std::string Huge = shard::encodeFrame(shard::FrameType::Result, "x");
  auto PatchLen = [](std::string B, uint64_t Len) {
    for (size_t I = 0; I != 8; ++I)
      B[8 + I] = static_cast<char>((Len >> (8 * I)) & 0xff);
    return B;
  };

  // Over the cap: rejected from the header alone, before any payload
  // byte is read (the write end stays open, so a reader that tried to
  // read the payload would block until the timeout instead).
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    std::string Bytes =
        PatchLen(Huge, shard::MaxFramePayload + 1)
            .substr(0, shard::FrameHeaderBytes);
    ASSERT_EQ(::write(Fds[1], Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    Expected<shard::Frame> F = shard::readFrame(Fds[0], 5.0);
    ASSERT_FALSE(F.hasValue());
    EXPECT_EQ(F.status().code(), ErrorCode::ResourceExhausted);
    ::close(Fds[0]);
    ::close(Fds[1]);
  }

  // Under the cap but lying by half a gigabyte, with the peer dying
  // after five real bytes: the chunked reader detects the closed pipe
  // having grown its buffer only as far as the bytes that arrived.
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    std::string Bytes = PatchLen(Huge, uint64_t(512) << 20)
                            .substr(0, shard::FrameHeaderBytes) +
                        "hello";
    ASSERT_EQ(::write(Fds[1], Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    ::close(Fds[1]); // Peer dies mid-frame.
    Expected<shard::Frame> F = shard::readFrame(Fds[0], 5.0);
    ASSERT_FALSE(F.hasValue());
    EXPECT_EQ(F.status().code(), ErrorCode::WorkerLost)
        << F.status().str();
    ::close(Fds[0]);
  }
}

TEST_F(ShardTest, InitCodecRoundTripsAlgorithmOptions) {
  InferOptions Sent;
  Sent.MaxIters = 7;
  Sent.Threshold = 0.625;
  Sent.SummaryTolerance = 1e-7;
  Sent.Solver = SolverChoice::Gibbs;
  Sent.SpecHi = 0.9;
  Sent.SpecLo = 0.1;
  Sent.RespectDeclared = false;
  Sent.Fallback = false;
  Sent.SolveBudgetSeconds = 2.5;
  Sent.Seed = 42;
  Sent.FaultScope = "req9";
  Sent.Constraints.L1Branch = 0.77;
  Sent.Constraints.H5Sync = 0.66;
  Sent.Constraints.EnableH3 = false;
  Sent.Constraints.LogicalOnly = true;
  Sent.Constraints.KindMutex = false;
  Sent.Constraints.KindMutexProb = 0.42;

  std::string Payload = shard::encodeInit("class A { }", Sent);
  std::string Source;
  InferOptions Got;
  Status S = shard::decodeInit(Payload, Source, Got);
  ASSERT_TRUE(S.isOk()) << S.str();
  EXPECT_EQ(Source, "class A { }");
  EXPECT_EQ(Got.MaxIters, 7u);
  EXPECT_DOUBLE_EQ(Got.Threshold, 0.625);
  EXPECT_DOUBLE_EQ(Got.SummaryTolerance, 1e-7);
  EXPECT_EQ(Got.Solver, SolverChoice::Gibbs);
  EXPECT_DOUBLE_EQ(Got.SpecHi, 0.9);
  EXPECT_DOUBLE_EQ(Got.SpecLo, 0.1);
  EXPECT_FALSE(Got.RespectDeclared);
  EXPECT_FALSE(Got.Fallback);
  EXPECT_DOUBLE_EQ(Got.SolveBudgetSeconds, 2.5);
  EXPECT_EQ(Got.Seed, 42u);
  EXPECT_EQ(Got.FaultScope, "req9");
  EXPECT_DOUBLE_EQ(Got.Constraints.L1Branch, 0.77);
  EXPECT_DOUBLE_EQ(Got.Constraints.H5Sync, 0.66);
  EXPECT_FALSE(Got.Constraints.EnableH3);
  EXPECT_TRUE(Got.Constraints.EnableH4);
  EXPECT_TRUE(Got.Constraints.LogicalOnly);
  EXPECT_FALSE(Got.Constraints.KindMutex);
  EXPECT_DOUBLE_EQ(Got.Constraints.KindMutexProb, 0.42);
}

TEST_F(ShardTest, TaskCodecRoundTripsAndRejectsTruncation) {
  const std::vector<unsigned> Indices = {0, 3, 17, 4096};
  const std::string Snapshot("sealed\0snapshot\0bytes", 21);
  std::string Payload = shard::encodeTask(Indices, Snapshot);

  std::vector<unsigned> GotIndices;
  std::string GotSnapshot;
  Status S = shard::decodeTask(Payload, GotIndices, GotSnapshot);
  ASSERT_TRUE(S.isOk()) << S.str();
  EXPECT_EQ(GotIndices, Indices);
  EXPECT_EQ(GotSnapshot, Snapshot);

  // Truncation anywhere, or trailing junk, is a structured rejection.
  for (size_t Cut : {size_t(0), size_t(2), Payload.size() / 2,
                     Payload.size() - 1}) {
    Status Bad = shard::decodeTask(Payload.substr(0, Cut), GotIndices,
                                   GotSnapshot);
    EXPECT_EQ(Bad.code(), ErrorCode::InvalidArgument) << "cut at " << Cut;
  }
  EXPECT_EQ(shard::decodeTask(Payload + "x", GotIndices, GotSnapshot).code(),
            ErrorCode::InvalidArgument);
  std::string IgnoredSource;
  InferOptions IgnoredOpts;
  EXPECT_EQ(shard::decodeInit("", IgnoredSource, IgnoredOpts).code(),
            ErrorCode::InvalidArgument);
}

TEST_F(ShardTest, InitCodecRoundTripsCollectLevel) {
  InferOptions Opts;
  std::string Payload = shard::encodeInit("class A { }", Opts, /*CollectLevel=*/2);
  std::string Source;
  InferOptions Got;
  uint8_t Level = 0;
  Status S = shard::decodeInit(Payload, Source, Got, &Level);
  ASSERT_TRUE(S.isOk()) << S.str();
  EXPECT_EQ(Level, 2);

  // Default encode ships level 0 (collection off), and a decoder that
  // does not care may pass no out-param.
  std::string Off = shard::encodeInit("class A { }", Opts);
  Level = 0xff;
  ASSERT_TRUE(shard::decodeInit(Off, Source, Got, &Level).isOk());
  EXPECT_EQ(Level, 0);
  ASSERT_TRUE(shard::decodeInit(Off, Source, Got).isOk());

  // A level beyond the TraceLevel vocabulary is a structured rejection,
  // not a silently clamped knob.
  EXPECT_EQ(shard::decodeInit(shard::encodeInit("x", Opts, 7), Source, Got,
                              &Level)
                .code(),
            ErrorCode::InvalidArgument);
}

TEST_F(ShardTest, TaskCodecRoundTripsDispatchIdentity) {
  shard::TaskMeta Sent;
  Sent.ParentFlowId = 0x1122334455667788ull;
  Sent.Wave = 9;
  Sent.DispatchUs = 1234567;
  std::string Payload = shard::encodeTask({1, 2, 3}, "snapshot", Sent);

  std::vector<unsigned> Indices;
  std::string Snapshot;
  shard::TaskMeta Got;
  Status S = shard::decodeTask(Payload, Indices, Snapshot, &Got);
  ASSERT_TRUE(S.isOk()) << S.str();
  EXPECT_EQ(Indices, (std::vector<unsigned>{1, 2, 3}));
  EXPECT_EQ(Snapshot, "snapshot");
  EXPECT_EQ(Got.ParentFlowId, Sent.ParentFlowId);
  EXPECT_EQ(Got.Wave, Sent.Wave);
  EXPECT_EQ(Got.DispatchUs, Sent.DispatchUs);

  // The dispatch-identity trailer (u64 flow + u32 wave + u64 clock = 20
  // bytes) is required: cutting anywhere inside it is a structured
  // rejection even for a decoder that ignores the meta.
  for (size_t Cut = Payload.size() - 20; Cut != Payload.size(); ++Cut)
    EXPECT_EQ(
        shard::decodeTask(Payload.substr(0, Cut), Indices, Snapshot).code(),
        ErrorCode::InvalidArgument)
        << "cut at " << Cut;
}

/// A representative blob: spans with args, an instant, a flow end, plus
/// counter/gauge/histogram deltas — every field the wire format carries.
shard::TelemetryBlob sampleTelemetryBlob() {
  shard::TelemetryBlob Blob;
  Blob.Pid = 4242;
  Blob.Wave = 7;
  Blob.ParentFlowId = 0xfeedbeefu;
  Blob.TaskStartUs = 123456;

  telemetry::EventRecord Span;
  Span.Name = "shard.task";
  Span.Category = "shard";
  Span.Args = "\"wave\": 7, \"methods\": 3";
  Span.Phase = 'X';
  Span.TsUs = 10;
  Span.DurUs = 250;
  Span.Tid = 1;
  Span.Depth = 2;
  telemetry::EventRecord Instant;
  Instant.Name = "solver.cascade";
  Instant.Category = "solver";
  Instant.Phase = 'i';
  Instant.TsUs = 40;
  telemetry::EventRecord Flow;
  Flow.Name = "shard.flow";
  Flow.Category = "shard";
  Flow.Phase = 'f';
  Flow.TsUs = 5;
  Flow.FlowId = 0xfeedbeefu;
  Blob.Events = {Span, Instant, Flow};

  Blob.Metrics.Counters["solver.bp.solves"] = 3;
  Blob.Metrics.Gauges["solver.bp.residual"] = 0.125;
  telemetry::HistogramSnapshot H;
  H.Count = 4;
  H.Sum = 100.0;
  H.Min = 10.0;
  H.Max = 40.0;
  H.Buckets.assign(telemetry::Histogram::NumBuckets, 0);
  H.Buckets[35] = 4;
  Blob.Metrics.Histograms["infer.method_run_us"] = H;
  return Blob;
}

TEST_F(ShardTest, TelemetryCodecRoundTripsEventsAndMetrics) {
  shard::TelemetryBlob Sent = sampleTelemetryBlob();
  std::string Payload = shard::encodeTelemetry(Sent);
  shard::TelemetryBlob Got;
  Status S = shard::decodeTelemetry(Payload, Got);
  ASSERT_TRUE(S.isOk()) << S.str();

  EXPECT_EQ(Got.Pid, Sent.Pid);
  EXPECT_EQ(Got.Wave, Sent.Wave);
  EXPECT_EQ(Got.ParentFlowId, Sent.ParentFlowId);
  EXPECT_EQ(Got.TaskStartUs, Sent.TaskStartUs);

  ASSERT_EQ(Got.Events.size(), Sent.Events.size());
  for (size_t I = 0; I != Sent.Events.size(); ++I) {
    const telemetry::EventRecord &A = Sent.Events[I];
    const telemetry::EventRecord &B = Got.Events[I];
    EXPECT_EQ(B.Name, A.Name) << I;
    EXPECT_EQ(B.Category, A.Category) << I;
    EXPECT_EQ(B.Args, A.Args) << I;
    EXPECT_EQ(B.Phase, A.Phase) << I;
    EXPECT_EQ(B.TsUs, A.TsUs) << I;
    EXPECT_EQ(B.DurUs, A.DurUs) << I;
    EXPECT_EQ(B.Tid, A.Tid) << I;
    EXPECT_EQ(B.Depth, A.Depth) << I;
    EXPECT_EQ(B.FlowId, A.FlowId) << I;
  }

  EXPECT_EQ(Got.Metrics.Counters, Sent.Metrics.Counters);
  EXPECT_EQ(Got.Metrics.Gauges, Sent.Metrics.Gauges);
  ASSERT_EQ(Got.Metrics.Histograms.size(), 1u);
  const telemetry::HistogramSnapshot &H =
      Got.Metrics.Histograms.at("infer.method_run_us");
  EXPECT_EQ(H.Count, 4u);
  EXPECT_DOUBLE_EQ(H.Sum, 100.0);
  EXPECT_DOUBLE_EQ(H.Min, 10.0);
  EXPECT_DOUBLE_EQ(H.Max, 40.0);
  ASSERT_EQ(H.Buckets.size(), size_t(telemetry::Histogram::NumBuckets));
  EXPECT_EQ(H.Buckets[35], 4u);
}

TEST_F(ShardTest, TelemetryDecodeRejectsTruncationAndCorruption) {
  std::string Payload = shard::encodeTelemetry(sampleTelemetryBlob());
  shard::TelemetryBlob Got;

  // Every strict prefix is a structured rejection — the dropped-telemetry
  // contract starts with "never crash, never accept garbage".
  for (size_t Cut = 0; Cut != Payload.size(); ++Cut)
    EXPECT_EQ(shard::decodeTelemetry(Payload.substr(0, Cut), Got).code(),
              ErrorCode::InvalidArgument)
        << "cut at " << Cut;

  // Trailing junk after a well-formed blob.
  EXPECT_EQ(shard::decodeTelemetry(Payload + "x", Got).code(),
            ErrorCode::InvalidArgument);

  // A blob-version mismatch (leading byte) is rejected outright rather
  // than misparsed as a different layout.
  std::string WrongVersion = Payload;
  WrongVersion[0] = static_cast<char>(WrongVersion[0] ^ 0x40);
  Status S = shard::decodeTelemetry(WrongVersion, Got);
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(S.str().find("version"), std::string::npos) << S.str();
}

//===----------------------------------------------------------------------===//
// Real worker processes: byte-identity and failure recovery
//===----------------------------------------------------------------------===//

TEST_F(ShardTest, ShardedRunMatchesInProcessByteForByte) {
  const std::string Source = iteratorApiSource() + spreadsheetSource();
  ShardRun Run = runSharded(Source, testCoordinatorOptions(2));
  EXPECT_EQ(Run.Output, baselineOutput(Source));
  EXPECT_GE(Run.Stats.WavesRemote, 1u);
  EXPECT_GE(Run.Stats.ShardsDispatched, 1u);
  EXPECT_GE(Run.Stats.WorkersSpawned, 1u);
  EXPECT_EQ(Run.Stats.WorkersLost, 0u);
  EXPECT_EQ(Run.Stats.Redispatches, 0u);
  EXPECT_EQ(Run.Stats.ShardsQuarantined, 0u);
}

TEST_F(ShardTest, KilledWorkerIsRedispatchedByteIdentically) {
  // One worker is SIGKILLed right after a shard lands on it; the shard
  // must be re-dispatched to a fresh worker and the merged output must
  // not change by a byte.
  const std::string Source = iteratorApiSource() + spreadsheetSource();
  std::string Baseline = baselineOutput(Source);

  faults::ScopedFault Crash(FaultKind::WorkerCrash, "", 1);
  ShardRun Run = runSharded(Source, testCoordinatorOptions(2));
  EXPECT_EQ(Run.Output, Baseline);
  EXPECT_GE(Run.Stats.WorkersLost, 1u);
  EXPECT_GE(Run.Stats.Redispatches, 1u);
  EXPECT_EQ(Run.Stats.ShardsQuarantined, 0u);
  EXPECT_EQ(Run.Stats.WavesDegraded, 0u);
}

TEST_F(ShardTest, HungWorkerTripsHeartbeatDeadlineAndIsRedispatched) {
  // The worker is SIGSTOPped, so its heartbeats go silent; the
  // coordinator must declare it hung within the deadline, SIGKILL it,
  // and re-dispatch — not block forever.
  const std::string Source = fileProtocolSource();
  std::string Baseline = baselineOutput(Source);

  faults::ScopedFault Hang(FaultKind::WorkerHang, "", 1);
  shard::CoordinatorOptions Co = testCoordinatorOptions(2);
  Co.HeartbeatTimeoutSeconds = 0.5;
  ShardRun Run = runSharded(Source, Co);
  EXPECT_EQ(Run.Output, Baseline);
  EXPECT_GE(Run.Stats.WorkersLost, 1u);
  EXPECT_GE(Run.Stats.Redispatches, 1u);
  EXPECT_EQ(Run.Stats.ShardsQuarantined, 0u);
}

TEST_F(ShardTest, CorruptResultFrameCostsOneAttemptNotTheRun) {
  // A received result frame has a byte flipped; the sealed outcome
  // blob's checksum catches it, the worker is recycled, and the shard
  // re-dispatched.
  const std::string Source = fileProtocolSource();
  std::string Baseline = baselineOutput(Source);

  faults::ScopedFault Corrupt(FaultKind::WireCorrupt, "", 1);
  ShardRun Run = runSharded(Source, testCoordinatorOptions(2));
  EXPECT_EQ(Run.Output, Baseline);
  EXPECT_GE(Run.Stats.WorkersLost, 1u);
  EXPECT_GE(Run.Stats.Redispatches, 1u);
  EXPECT_EQ(Run.Stats.ShardsQuarantined, 0u);
}

TEST_F(ShardTest, RelentlessCrashesQuarantineTheShardInProcess) {
  // Every dispatch kills its worker: after QuarantineAfter consecutive
  // losses the shard must degrade to in-process execution — terminal
  // state degraded(shard-quarantine), never a lost shard, and still
  // byte-identical output.
  const std::string Source = fileProtocolSource();
  std::string Baseline = baselineOutput(Source);

  faults::ScopedFault Crash(FaultKind::WorkerCrash);
  shard::CoordinatorOptions Co = testCoordinatorOptions(2);
  Co.QuarantineAfter = 2;
  ShardRun Run = runSharded(Source, Co);
  EXPECT_EQ(Run.Output, Baseline);
  EXPECT_GE(Run.Stats.ShardsQuarantined, 1u);
  EXPECT_GE(Run.Stats.WorkersLost, Co.QuarantineAfter);
  EXPECT_EQ(Run.Stats.WavesDegraded, 0u);
}

TEST_F(ShardTest, NonProtocolWorkerQuarantinesTheShardInProcess) {
  // The "worker" binary exits at once without speaking the protocol, so
  // every dispatch loses its worker. The shard must still degrade to
  // in-process execution — terminal state degraded(shard-quarantine),
  // never a wrong or truncated result.
  const std::string Source = fileProtocolSource();
  shard::CoordinatorOptions Co = testCoordinatorOptions(2);
  Co.QuarantineAfter = 2;
  Co.WorkerArgv = {ANEK_TOOL_PATH, "--not-a-worker-mode"};
  ShardRun Run = runSharded(Source, Co);
  EXPECT_EQ(Run.Output, baselineOutput(Source));
  EXPECT_GE(Run.Stats.ShardsQuarantined, 1u);
  EXPECT_GE(Run.Stats.WorkersLost, Co.QuarantineAfter);
  EXPECT_EQ(Run.Stats.WavesDegraded, 0u);
}

/// A WaveShardExecutor that computes each wave correctly in process, then
/// damages the record list the way a buggy executor could.
class DamagingExecutor final : public WaveShardExecutor {
public:
  enum class Damage { Short, Duplicate, UnknownIndex, WrongArity };

  DamagingExecutor(Program &Prog, Damage D) : Prog(Prog), D(D) {}

  Expected<std::vector<summaryio::SolveOutcome>>
  executeWave(const std::vector<unsigned> &DeclIndices,
              const std::string &Snapshot) override {
    Expected<std::vector<summaryio::SolveOutcome>> Out =
        runShardMethods(Prog, DeclIndices, Snapshot, InferOptions());
    if (!Out)
      return Out;
    std::vector<summaryio::SolveOutcome> Records = Out.take();
    switch (D) {
    case Damage::Short:
      Records.pop_back();
      break;
    case Damage::Duplicate:
      // Same length, one method twice and another missing.
      if (Records.size() >= 2)
        Records[1] = Records[0];
      break;
    case Damage::UnknownIndex:
      Records.front().DeclIndex = 1u << 30;
      break;
    case Damage::WrongArity:
      for (summaryio::SolveOutcome &R : Records)
        if (!R.Updates.empty())
          R.Updates.front().Odds.push_back(1.0);
      break;
    }
    return Records;
  }

private:
  Program &Prog;
  Damage D;
};

TEST_F(ShardTest, DamagedWaveResultsDegradeToInProcess) {
  // A shard result passes one validation before the merge trusts it:
  // exactly one record per method of the wave, each naming known methods
  // and matching arities. A result that fails it degrades the wave to
  // in-process execution, and the output stays byte-identical to -j1.
  const std::string Source = iteratorApiSource() + spreadsheetSource();
  const std::string Baseline = baselineOutput(Source);
  for (DamagingExecutor::Damage D :
       {DamagingExecutor::Damage::Short, DamagingExecutor::Damage::Duplicate,
        DamagingExecutor::Damage::UnknownIndex,
        DamagingExecutor::Damage::WrongArity}) {
    SCOPED_TRACE(static_cast<int>(D));
    auto Prog = analyze(Source);
    DamagingExecutor Executor(*Prog, D);
    InferOptions Opts;
    Opts.ShardExec = &Executor;
    ShardStats Stats;
    EXPECT_EQ(inferAndPrint(*Prog, Opts, &Stats), Baseline);
    EXPECT_GE(Stats.WavesDegraded, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Distributed telemetry end to end
//===----------------------------------------------------------------------===//

/// Turns collection on for one test body and leaves the process clean
/// (level off, buffers drained, metrics zeroed) however the test exits.
struct ScopedTelemetry {
  explicit ScopedTelemetry(telemetry::TraceLevel Level) {
    telemetry::resetTrace();
    telemetry::resetMetricsForTest();
    telemetry::setTraceLevel(Level);
  }
  ~ScopedTelemetry() {
    telemetry::setTraceLevel(telemetry::TraceLevel::Off);
    telemetry::resetTrace();
    telemetry::resetMetricsForTest();
  }
};

TEST_F(ShardTest, WorkerTelemetryMergesIntoCoordinatorTrace) {
  // A sharded run with collection on — and a worker crash injected — must
  // (a) keep the analysis output byte-identical to -j1, (b) land the
  // workers' spans in this process's trace under their own pid lanes, and
  // (c) record the loss as a trace instant. Telemetry frames arrive
  // best-effort but a clean pipe drops none.
  const std::string Source = fileProtocolSource();
  std::string Baseline = baselineOutput(Source);

  // Method level so the dispatch flow (Method-gated) is exercised too.
  ScopedTelemetry Collect(telemetry::TraceLevel::Method);
  faults::ScopedFault Crash(FaultKind::WorkerCrash, "", 1);
  ShardRun Run = runSharded(Source, testCoordinatorOptions(2));
  std::string Trace = telemetry::chromeTraceJson();
  std::string Metrics = telemetry::metricsJson();
  uint64_t Frames = telemetry::counter("shard.telemetry_frames").value();
  uint64_t Dropped = telemetry::counter("shard.telemetry_dropped").value();

  EXPECT_EQ(Run.Output, Baseline);
  EXPECT_GE(Run.Stats.WorkersLost, 1u);

  // Worker lanes: the merged trace names at least one remote process and
  // carries the worker-side task span the blob shipped.
  EXPECT_NE(Trace.find("anek-worker pid"), std::string::npos);
  EXPECT_NE(Trace.find("shard.task"), std::string::npos);
  // Lifecycle instants from the coordinator's lane.
  EXPECT_NE(Trace.find("shard.worker_spawn"), std::string::npos);
  EXPECT_NE(Trace.find("shard.worker_lost"), std::string::npos);
  // The dispatch arrow: a flow begin on the coordinator and the matching
  // synthesized end in the worker lane.
  EXPECT_NE(Trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(Trace.find("\"ph\":\"f\""), std::string::npos);

  // Worker metrics aggregate beside the local series, never into them.
  EXPECT_NE(Metrics.find("shard.worker."), std::string::npos);
  EXPECT_GE(Frames, 1u);
  EXPECT_EQ(Dropped, 0u);
}

TEST_F(ShardTest, TelemetryCollectionPreservesFailureRecovery) {
  // Collection on must not weaken the failure model: relentless crashes
  // still quarantine, the output still matches, and the quarantine shows
  // up as a trace instant.
  const std::string Source = fileProtocolSource();
  std::string Baseline = baselineOutput(Source);

  ScopedTelemetry Collect(telemetry::TraceLevel::Phase);
  faults::ScopedFault Crash(FaultKind::WorkerCrash);
  shard::CoordinatorOptions Co = testCoordinatorOptions(2);
  Co.QuarantineAfter = 2;
  ShardRun Run = runSharded(Source, Co);
  std::string Trace = telemetry::chromeTraceJson();

  EXPECT_EQ(Run.Output, Baseline);
  EXPECT_GE(Run.Stats.ShardsQuarantined, 1u);
  EXPECT_NE(Trace.find("shard.quarantine"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Through the serving layer
//===----------------------------------------------------------------------===//

serve::BatchOptions batchWithShardFactory() {
  serve::BatchOptions Opts;
  Opts.Workers = 1;
  Opts.MaxAttempts = 1;
  Opts.Shards = [](Program &Prog, const std::string &Source,
                   const InferOptions &InferOpts,
                   unsigned Shards) -> std::unique_ptr<WaveShardExecutor> {
    shard::CoordinatorOptions Co = testCoordinatorOptions(Shards);
    Co.QuarantineAfter = 2;
    return std::make_unique<shard::ShardCoordinator>(Prog, Source, InferOpts,
                                                     Co);
  };
  return Opts;
}

TEST_F(ShardTest, BatchShardedRequestMatchesInProcessRequest) {
  serve::BatchRequest InProcess;
  InProcess.Id = "plain";
  InProcess.Input = "example:file";
  serve::BatchRequest Sharded;
  Sharded.Id = "sharded";
  Sharded.Input = "example:file";
  Sharded.Shards = 2;

  std::vector<serve::BatchResult> Results =
      serve::BatchRunner(batchWithShardFactory()).run({InProcess, Sharded});
  ASSERT_EQ(Results.size(), 2u);
  // The example carries fallback solves, so both runs report the same
  // algorithmic degradation — but sharding must not add infrastructure
  // reasons, and the outputs must be byte-identical.
  EXPECT_EQ(Results[0].State, Results[1].State) << Results[1].Reason;
  EXPECT_EQ(Results[0].Reason, Results[1].Reason);
  EXPECT_EQ(Results[1].Reason.find("shard"), std::string::npos)
      << Results[1].Reason;
  EXPECT_FALSE(Results[0].Output.empty());
  EXPECT_EQ(Results[0].Output, Results[1].Output);
}

TEST_F(ShardTest, BatchSurfacesQuarantineAsDegraded) {
  // A request whose workers always die must still complete — via
  // quarantine — and must say so: terminal state degraded with a
  // shard-quarantine reason, with the same output as a clean request.
  serve::BatchRequest Clean;
  Clean.Id = "clean";
  Clean.Input = "example:file";
  serve::BatchRequest Doomed;
  Doomed.Id = "doomed";
  Doomed.Input = "example:file";
  Doomed.Shards = 2;
  Doomed.FaultSpec = "worker-crash:doomed";

  std::vector<serve::BatchResult> Results =
      serve::BatchRunner(batchWithShardFactory()).run({Clean, Doomed});
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Reason.find("shard"), std::string::npos)
      << Results[0].Reason;
  EXPECT_EQ(Results[1].State, serve::TerminalState::Degraded)
      << Results[1].Reason;
  EXPECT_NE(Results[1].Reason.find("shard-quarantine"), std::string::npos)
      << Results[1].Reason;
  EXPECT_EQ(Results[0].Output, Results[1].Output);
}

} // namespace
