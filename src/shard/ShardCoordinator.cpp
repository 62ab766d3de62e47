//===- ShardCoordinator.cpp - Crash-tolerant shard dispatch -----------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardCoordinator.h"

#include "shard/Wire.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <thread>

using namespace anek;
using namespace anek::shard;

namespace {

void bumpCounter(const char *Name) {
  if (telemetry::enabled(telemetry::TraceLevel::Phase))
    telemetry::counter(Name).add(1);
}

/// Merges one worker's shipped telemetry into the coordinator-side
/// stores: events land in the worker's pid lane with the two process
/// clocks aligned (worker task-start mapped onto coordinator dispatch
/// time), metrics land under `shard.worker.`. When the dispatch opened a
/// flow, a synthesized flow-end at task start stitches the worker lane to
/// the coordinator's dispatch span — the worker itself never learns about
/// flow events.
void absorbWorkerTelemetry(const TelemetryBlob &Blob, int64_t DispatchUs) {
  if (!telemetry::enabled(telemetry::TraceLevel::Phase))
    return;
  std::vector<telemetry::EventRecord> Events = Blob.Events;
  if (Blob.ParentFlowId != 0) {
    telemetry::EventRecord Flow;
    Flow.Name = "shard.flow";
    Flow.Category = "shard";
    Flow.Phase = 'f';
    Flow.TsUs = Blob.TaskStartUs;
    Flow.Tid = 0;
    Flow.FlowId = Blob.ParentFlowId;
    Events.push_back(std::move(Flow));
  }
  telemetry::addRemoteEvents(Blob.Pid,
                             formatStr("anek-worker pid %u", Blob.Pid),
                             Events, DispatchUs - Blob.TaskStartUs);
  telemetry::absorbMetrics(Blob.Metrics, "shard.worker.");
}

} // namespace

ShardCoordinator::ShardCoordinator(Program &Prog, std::string Source,
                                   InferOptions Opts,
                                   CoordinatorOptions CoOpts)
    : Prog(Prog), Opts(std::move(Opts)), Co(std::move(CoOpts)) {
  // The coordinator writes to pipes whose reader may be freshly dead;
  // EPIPE must arrive as a Status, not SIGPIPE.
  subprocess::ignoreSigpipe();
  // Quarantine fallback and workers both run leaf analyses; neither may
  // recurse into sharding.
  this->Opts.ShardExec = nullptr;
  if (Co.Workers == 0)
    Co.Workers = 1;
  if (Co.WorkerArgv.empty())
    Co.WorkerArgv = {subprocess::selfExePath("anek"), "--worker"};
  Co.WorkerArgv.insert(Co.WorkerArgv.end(), Co.WorkerExtraArgv.begin(),
                       Co.WorkerExtraArgv.end());
  // Workers collect at (at least) the coordinator's level and ship per
  // task; level 0 keeps the protocol telemetry-free.
  InitPayload = encodeInit(Source, this->Opts,
                           static_cast<uint8_t>(telemetry::traceLevel()));
  Slots.resize(Co.Workers);
}

ShardCoordinator::~ShardCoordinator() {
  // Best-effort graceful shutdown; the ChildProcess destructors then
  // SIGKILL and reap whatever ignores it (a SIGSTOPped straggler
  // included).
  for (subprocess::ChildProcess &W : Slots)
    if (W.running() && !W.poll())
      (void)writeFrame(W.writeFd(), FrameType::Shutdown, {});
}

ShardStats ShardCoordinator::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Stats;
}

Status ShardCoordinator::ensureWorker(unsigned SlotIndex) {
  subprocess::ChildProcess &W = Slots[SlotIndex];
  if (W.running() && !W.poll())
    return Status::ok(); // Alive and Init'd from a previous dispatch.
  // Move-assigning a fresh ChildProcess SIGKILLs, reaps and closes the
  // pipes of whatever the slot held before.
  W = subprocess::ChildProcess();
  if (Status Sp = W.spawn(Co.WorkerArgv); !Sp)
    return Sp;
  if (Status Init = writeFrame(W.writeFd(), FrameType::Init, InitPayload);
      !Init) {
    W = subprocess::ChildProcess();
    return Init;
  }
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.WorkersSpawned;
  }
  bumpCounter("shard.workers_spawned");
  if (telemetry::enabled(telemetry::TraceLevel::Phase))
    telemetry::instant("shard.worker_spawn", telemetry::TraceLevel::Phase,
                       "shard",
                       formatStr("\"slot\": %u, \"pid\": %d", SlotIndex,
                                 static_cast<int>(W.pid())));
  return Status::ok();
}

Expected<std::vector<summaryio::SolveOutcome>>
ShardCoordinator::dispatchOnce(subprocess::ChildProcess &Worker,
                               uint32_t Wave,
                               const std::vector<unsigned> &Indices,
                               const std::string &Snapshot,
                               bool &WorkerReported) {
  TaskMeta Meta;
  Meta.Wave = Wave;
  if (telemetry::enabled(telemetry::TraceLevel::Method)) {
    // Open a flow at dispatch; the matching end is synthesized into the
    // worker's lane when its telemetry arrives, drawing the arrow from
    // this dispatch span to the remote task span in the trace viewer.
    Meta.ParentFlowId = telemetry::newFlowId();
    telemetry::flowBegin("shard.flow", telemetry::TraceLevel::Method,
                         "shard", Meta.ParentFlowId);
  }
  Meta.DispatchUs = telemetry::nowUs();
  if (Status W = writeFrame(Worker.writeFd(), FrameType::Task,
                            encodeTask(Indices, Snapshot, Meta));
      !W)
    return W;
  for (;;) {
    // Any frame — heartbeats included — proves liveness and re-arms the
    // deadline; a worker silent for the whole window is declared hung.
    Expected<Frame> F = readFrame(Worker.readFd(), Co.HeartbeatTimeoutSeconds,
                                  Co.MaxFrameBytes);
    if (!F)
      return F.status();
    switch (F->Type) {
    case FrameType::Heartbeat:
      continue;
    case FrameType::Telemetry: {
      TelemetryBlob Blob;
      if (Status S = decodeTelemetry(F->Payload, Blob); !S) {
        // Dropped, counted, never fatal: the dispatch is decided by the
        // Result frame alone.
        bumpCounter("shard.telemetry_dropped");
        telemetry::instant("shard.telemetry_dropped",
                           telemetry::TraceLevel::Phase, "shard",
                           "\"reason\": " + telemetry::jsonQuote(S.message()));
        continue;
      }
      bumpCounter("shard.telemetry_frames");
      absorbWorkerTelemetry(Blob, Meta.DispatchUs);
      continue;
    }
    case FrameType::Result: {
      std::string Payload = std::move(F->Payload);
      // The wire-corrupt control point: flip one byte of the received
      // result exactly as a torn stream would. The outcome blob's own
      // checksum rejects it, which classifies as a lost worker.
      if (faults::anyActive() &&
          faults::consumeFire(FaultKind::WireCorrupt, Opts.FaultScope) &&
          !Payload.empty())
        Payload[Payload.size() / 2] ^= 0x20;
      Expected<std::vector<summaryio::SolveOutcome>> Out =
          summaryio::decodeOutcomes(Payload);
      if (!Out)
        return Status::error(ErrorCode::WorkerLost,
                             "unreadable result frame: " +
                                 Out.status().str());
      return Out;
    }
    case FrameType::Error:
      // The worker is healthy and *reporting* a deterministic failure
      // (bad index, snapshot mismatch). Retrying cannot help; the engine
      // degrades the wave to in-process execution instead.
      WorkerReported = true;
      return Status::error(ErrorCode::Internal,
                           "worker reported: " + F->Payload);
    default:
      return Status::error(ErrorCode::WorkerLost,
                           std::string("unexpected frame type ") +
                               frameTypeName(F->Type));
    }
  }
}

Expected<std::vector<summaryio::SolveOutcome>>
ShardCoordinator::runShard(unsigned SlotIndex, uint32_t Wave,
                           const std::vector<unsigned> &Indices,
                           const std::string &Snapshot) {
  const std::string RetryLabel =
      Opts.FaultScope + "/shard" + std::to_string(SlotIndex);
  // Every failed attempt — a lost dispatch or a worker that could not
  // even be started — counts toward the shard's in-process quarantine
  // and paces the shared backoff.
  unsigned Attempt = 0;
  for (;;) {
    if (Attempt >= Co.QuarantineAfter) {
      // Quarantine: this shard keeps killing workers, so it degrades to
      // in-process sequential execution. Same snapshot, same options,
      // same bytes — the shard is slower, never lost.
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.ShardsQuarantined;
      }
      bumpCounter("shard.quarantined");
      telemetry::instant("shard.quarantine", telemetry::TraceLevel::Phase,
                         "shard",
                         formatStr("\"slot\": %u, \"wave\": %u, "
                                   "\"losses\": %u",
                                   SlotIndex, Wave, Attempt));
      telemetry::Span Q("shard.quarantine", telemetry::TraceLevel::Phase,
                        "shard");
      if (Q.active())
        Q.arg("slot", SlotIndex);
      return runShardMethods(Prog, Indices, Snapshot, Opts);
    }
    if (Attempt > 0) {
      double Delay = Co.Retry.delaySeconds(RetryLabel, Attempt + 1);
      if (Delay > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(Delay));
    }
    if (Status Up = ensureWorker(SlotIndex); !Up) {
      // A slot that cannot even start a worker must still reach
      // quarantine, so a failed spawn costs an attempt like a loss.
      ++Attempt;
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.WorkersLost;
      }
      bumpCounter("shard.workers_lost");
      continue;
    }
    subprocess::ChildProcess &Worker = Slots[SlotIndex];
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.ShardsDispatched;
      if (Attempt > 0)
        ++Stats.Redispatches;
    }
    bumpCounter(Attempt > 0 ? "shard.redispatches" : "shard.dispatches");

    // Chaos control points, applied with real kernel effects the instant
    // the shard is dispatched: a killed worker crashes under the task
    // (EOF on its stdout), a stopped one hangs (heartbeat silence).
    if (faults::anyActive()) {
      if (faults::consumeFire(FaultKind::WorkerCrash, Opts.FaultScope))
        Worker.kill(SIGKILL);
      else if (faults::consumeFire(FaultKind::WorkerHang, Opts.FaultScope))
        Worker.kill(SIGSTOP);
    }

    bool WorkerReported = false;
    Expected<std::vector<summaryio::SolveOutcome>> Out = [&] {
      telemetry::Span D("shard.dispatch", telemetry::TraceLevel::Method,
                        "shard");
      if (D.active()) {
        D.arg("slot", SlotIndex);
        D.arg("wave", Wave);
        D.arg("methods", static_cast<uint64_t>(Indices.size()));
      }
      return dispatchOnce(Worker, Wave, Indices, Snapshot, WorkerReported);
    }();
    if (Out)
      return Out;
    if (WorkerReported)
      return Out.status();
    // Crash, hang or corruption: recycle the worker and re-dispatch. The
    // failure becomes a trace instant (hang vs. lost distinguished by the
    // deadline error code); the retry itself is silent by design.
    telemetry::instant(
        "shard.worker_lost", telemetry::TraceLevel::Phase, "shard",
        formatStr("\"slot\": %u, \"wave\": %u, \"kind\": \"%s\", "
                  "\"message\": ",
                  SlotIndex, Wave,
                  Out.status().code() == ErrorCode::DeadlineExceeded
                      ? "hang"
                      : "lost") +
            telemetry::jsonQuote(Out.status().message()));
    Worker = subprocess::ChildProcess();
    ++Attempt;
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.WorkersLost;
    }
    bumpCounter("shard.workers_lost");
  }
}

Expected<std::vector<summaryio::SolveOutcome>>
ShardCoordinator::executeWave(const std::vector<unsigned> &DeclIndices,
                              const std::string &Snapshot) {
  std::vector<summaryio::SolveOutcome> Merged;
  if (DeclIndices.empty())
    return Merged;
  const uint32_t Wave =
      WaveOrdinal.fetch_add(1, std::memory_order_relaxed);

  // Contiguous, balanced shards; shard k runs on worker slot k. The
  // partition is a pure function of the wave, so re-running a wave (with
  // or without worker deaths in between) shards identically.
  size_t NumShards =
      std::min<size_t>(Co.Workers, DeclIndices.size());
  std::vector<std::vector<unsigned>> Shards(NumShards);
  size_t Base = DeclIndices.size() / NumShards;
  size_t Extra = DeclIndices.size() % NumShards;
  size_t At = 0;
  for (size_t K = 0; K != NumShards; ++K) {
    size_t Take = Base + (K < Extra ? 1 : 0);
    Shards[K].assign(DeclIndices.begin() + At,
                     DeclIndices.begin() + At + Take);
    At += Take;
  }

  std::vector<std::vector<summaryio::SolveOutcome>> Results(NumShards);
  std::vector<Status> Errors(NumShards, Status::ok());
  auto RunOne = [&](size_t K) {
    Expected<std::vector<summaryio::SolveOutcome>> Out =
        runShard(static_cast<unsigned>(K), Wave, Shards[K], Snapshot);
    if (Out)
      Results[K] = Out.take();
    else
      Errors[K] = Out.status();
  };
  if (NumShards == 1) {
    RunOne(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(NumShards);
    for (size_t K = 0; K != NumShards; ++K)
      Threads.emplace_back(RunOne, K);
    for (std::thread &T : Threads)
      T.join();
  }

  for (size_t K = 0; K != NumShards; ++K)
    if (!Errors[K])
      return Status::error(Errors[K].code(),
                           formatStr("shard %zu/%zu failed: %s", K + 1,
                                     NumShards,
                                     Errors[K].message().c_str()));
  for (std::vector<summaryio::SolveOutcome> &R : Results) {
    Merged.insert(Merged.end(), std::make_move_iterator(R.begin()),
                  std::make_move_iterator(R.end()));
  }
  return Merged;
}
