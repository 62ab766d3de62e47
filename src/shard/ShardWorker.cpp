//===- ShardWorker.cpp - The `anek --worker` process loop -------------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardWorker.h"

#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "shard/Wire.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"
#include "support/Subprocess.h"
#include "support/Trace.h"

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include <unistd.h>

using namespace anek;
using namespace anek::shard;

namespace {

/// Serializes every frame a worker emits: the heartbeat thread and the
/// task loop share one stream, and an interleaved write would hand the
/// coordinator a torn frame (which it must — and does — treat as a lost
/// worker, wasting a perfectly good attempt).
class FrameSender {
public:
  explicit FrameSender(int Fd) : Fd(Fd) {}

  Status send(FrameType Type, std::string_view Payload) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return writeFrame(Fd, Type, Payload);
  }

private:
  int Fd;
  std::mutex Mutex;
};

/// Emits Heartbeat frames every HeartbeatIntervalSeconds until stopped.
/// Write failures are ignored here: if the coordinator is gone the task
/// loop's own Result write will discover it.
class HeartbeatPulse {
public:
  explicit HeartbeatPulse(FrameSender &Sender) : Sender(Sender) {
    Thread = std::thread([this] { run(); });
  }

  ~HeartbeatPulse() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stop = true;
    }
    Cond.notify_all();
    Thread.join();
  }

private:
  void run() {
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      if (Cond.wait_for(Lock,
                        std::chrono::duration<double>(
                            HeartbeatIntervalSeconds),
                        [this] { return Stop; }))
        return;
      Lock.unlock();
      (void)Sender.send(FrameType::Heartbeat, {});
      Lock.lock();
    }
  }

  FrameSender &Sender;
  std::thread Thread;
  std::mutex Mutex;
  std::condition_variable Cond;
  bool Stop = false;
};

/// The Task-serving loop: reads Task/Shutdown frames from \p InFd and
/// answers over \p Sender against the resident \p Prog until the
/// coordinator hangs up. Heartbeats pulse while a task runs; when \p
/// CollectLevel is non-zero a Telemetry frame ships before each Result.
/// Task-level failures are Error frames, never loop enders. Returns true
/// on Shutdown or EOF (the coordinator is simply gone — normal in the
/// shard failure model), false when our own sends failed or a frame
/// from the coordinator was malformed beyond answering.
bool serveTasks(int InFd, FrameSender &Sender, Program &Prog,
                const InferOptions &Opts, uint8_t CollectLevel) {
  // The coordinator's collection level is a floor, not an override: a
  // worker started with its own --trace-level (e.g. to debug one shard at
  // solver depth) keeps the deeper setting.
  if (CollectLevel > static_cast<uint8_t>(telemetry::traceLevel()))
    telemetry::setTraceLevel(static_cast<telemetry::TraceLevel>(CollectLevel));
  const bool ShipTelemetry = CollectLevel != 0;
  // Draining cursors into the local trace buffers: each task ships only
  // the events recorded since the previous ship.
  std::vector<size_t> ShipMarks;

  // Task service loop. The worker is stateless across tasks; each Task
  // frame carries its own snapshot, so a respawned worker picking up a
  // re-dispatched shard starts from identical inputs.
  for (;;) {
    Expected<Frame> F = readFrame(InFd, /*TimeoutSeconds=*/-1.0);
    if (!F) {
      // EOF = coordinator gone (or shutting down without ceremony); a
      // malformed frame is unrecoverable — the stream can no longer be
      // trusted.
      return F.status().code() == ErrorCode::WorkerLost;
    }
    switch (F->Type) {
    case FrameType::Shutdown:
      return true;
    case FrameType::Task: {
      std::vector<unsigned> DeclIndices;
      std::string Snapshot;
      TaskMeta Meta;
      if (Status S = decodeTask(F->Payload, DeclIndices, Snapshot, &Meta);
          !S) {
        if (!Sender.send(FrameType::Error, S.str()))
          return false;
        break;
      }
      telemetry::MetricsSnapshot Before;
      if (ShipTelemetry)
        Before = telemetry::captureMetrics();
      int64_t TaskStartUs = telemetry::nowUs();
      Expected<std::vector<summaryio::SolveOutcome>> Outcomes = [&] {
        HeartbeatPulse Pulse(Sender);
        // Scoped so the task span is closed — and therefore collectable —
        // before telemetry is drained below.
        telemetry::Span TaskSpan("shard.task", telemetry::TraceLevel::Phase,
                                 "shard");
        if (TaskSpan.active()) {
          TaskSpan.arg("wave", Meta.Wave);
          TaskSpan.arg("methods", static_cast<uint64_t>(DeclIndices.size()));
        }
        return runShardMethods(Prog, DeclIndices, Snapshot, Opts);
      }();
      if (ShipTelemetry) {
        // Best-effort by contract: a failed Telemetry write is discovered
        // (and classified) by the Result write that follows.
        TelemetryBlob Blob;
        Blob.Pid = static_cast<uint32_t>(::getpid());
        Blob.Wave = Meta.Wave;
        Blob.ParentFlowId = Meta.ParentFlowId;
        Blob.TaskStartUs = TaskStartUs;
        Blob.Events = telemetry::collectEventsSince(ShipMarks);
        Blob.Metrics =
            telemetry::diffMetrics(Before, telemetry::captureMetrics());
        (void)Sender.send(FrameType::Telemetry, encodeTelemetry(Blob));
      }
      Status Sent =
          Outcomes ? Sender.send(FrameType::Result,
                                 summaryio::encodeOutcomes(*Outcomes))
                   : Sender.send(FrameType::Error, Outcomes.status().str());
      if (!Sent)
        return false;
      break;
    }
    default:
      // Heartbeats flow worker -> coordinator only; anything else here is
      // a protocol bug worth reporting but not dying over.
      if (!Sender.send(FrameType::Error,
                       std::string("unexpected frame type ") +
                           frameTypeName(F->Type)))
        return false;
      break;
    }
  }
}

} // namespace

int shard::runWorkerLoop(int InFd, int OutFd) {
  subprocess::ignoreSigpipe();
  FrameSender Sender(OutFd);

  // Session setup: exactly one Init frame, carrying everything needed to
  // become the coordinator's algorithmic twin.
  Expected<Frame> InitFrame = readFrame(InFd, /*TimeoutSeconds=*/-1.0);
  if (!InitFrame)
    return 1;
  if (InitFrame->Type != FrameType::Init) {
    (void)Sender.send(FrameType::Error,
                      std::string("expected init frame, got ") +
                          frameTypeName(InitFrame->Type));
    return 1;
  }
  std::string Source;
  InferOptions Opts;
  uint8_t CollectLevel = 0;
  if (Status S = decodeInit(InitFrame->Payload, Source, Opts, &CollectLevel);
      !S) {
    (void)Sender.send(FrameType::Error, S.str());
    return 1;
  }
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    (void)Sender.send(FrameType::Error,
                      "worker cannot parse program: " + Diags.str());
    return 1;
  }

  return serveTasks(InFd, Sender, *Prog, Opts, CollectLevel) ? 0 : 1;
}
