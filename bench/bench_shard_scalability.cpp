//===- bench_shard_scalability.cpp - Shard-tier throughput and resilience --===//
//
// Measures the crash-tolerant shard tier across worker counts:
// repeated inference runs are farmed to 1/2/4 real worker processes over
// the anek-shard-v2 pipe protocol. For each worker count the bench
// records sustained throughput (runs per second) for a clean pass and for
// a chaos pass in which every run loses one worker mid-shard to a
// SIGKILL. The respawn rate (re-dispatches per dispatch) quantifies what
// crash tolerance costs (DESIGN.md, "Sharded execution and failure
// model").
//
// The bench re-execs itself as its own worker (the hidden --worker
// mode). Writes bench_shard_scalability.json with one record per worker
// count.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/ExampleSources.h"
#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "shard/ShardCoordinator.h"
#include "shard/ShardWorker.h"
#include "support/FaultInject.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

struct Sample {
  unsigned Workers = 0;
  unsigned Rounds = 0;
  double CleanSeconds = 0.0;
  double ChaosSeconds = 0.0;
  ShardStats Chaos; ///< Accumulated over the chaos pass.

  double cleanRunsPerSec() const {
    return CleanSeconds > 0.0 ? Rounds / CleanSeconds : 0.0;
  }
  double chaosRunsPerSec() const {
    return ChaosSeconds > 0.0 ? Rounds / ChaosSeconds : 0.0;
  }
  double respawnRate() const {
    return Chaos.ShardsDispatched
               ? static_cast<double>(Chaos.Redispatches) /
                     Chaos.ShardsDispatched
               : 0.0;
  }
};

/// One sharded inference run; returns the engine-merged shard stats.
ShardStats runOnce(const std::string &Source, unsigned Workers) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "bench_shard_scalability: parse failed:\n%s\n",
                 Diags.str().c_str());
    std::exit(1);
  }
  InferOptions Opts;
  Opts.Parallelism = 1;
  shard::CoordinatorOptions Co;
  Co.Workers = Workers;
  Co.Retry.BaseDelaySeconds = 0.001;
  Co.Retry.MaxDelaySeconds = 0.005;
  shard::ShardCoordinator Coordinator(*Prog, Source, Opts, Co);
  Opts.ShardExec = &Coordinator;
  InferResult Result = runAnekInfer(*Prog, Opts);
  if (!Result.Aborted.isOk()) {
    std::fprintf(stderr, "bench_shard_scalability: run aborted: %s\n",
                 Result.Aborted.str().c_str());
    std::exit(1);
  }
  return Result.Shard;
}

void accumulate(ShardStats &Into, const ShardStats &S) {
  Into.WavesRemote += S.WavesRemote;
  Into.WavesDegraded += S.WavesDegraded;
  Into.ShardsDispatched += S.ShardsDispatched;
  Into.Redispatches += S.Redispatches;
  Into.WorkersLost += S.WorkersLost;
  Into.WorkersSpawned += S.WorkersSpawned;
  Into.ShardsQuarantined += S.ShardsQuarantined;
}

Sample sweepOnce(const std::string &Source, unsigned Workers,
                 unsigned Rounds) {
  Sample S;
  S.Workers = Workers;
  S.Rounds = Rounds;

  Timer CleanClock;
  for (unsigned R = 0; R < Rounds; ++R)
    runOnce(Source, Workers);
  S.CleanSeconds = CleanClock.seconds();

  Timer ChaosClock;
  for (unsigned R = 0; R < Rounds; ++R) {
    // SIGKILLs one worker mid-shard.
    faults::ScopedFault Crash(FaultKind::WorkerCrash, "", 1);
    accumulate(S.Chaos, runOnce(Source, Workers));
  }
  S.ChaosSeconds = ChaosClock.seconds();
  return S;
}

/// The distributed-telemetry overhead measurement: collection-off and
/// collection-on rounds interleaved (so machine drift hits both sides
/// equally), compared by median. With collection on, every dispatch also
/// ships a Telemetry frame and the coordinator merges it — the whole
/// cross-worker pipeline is in the measured path. The gate: collection
/// must cost at most 5% of median run time, or observability has started
/// perturbing what it observes.
struct OverheadSample {
  double OffMedianSeconds = 0.0;
  double OnMedianSeconds = 0.0;
  double ratio() const {
    return OffMedianSeconds > 0.0 ? OnMedianSeconds / OffMedianSeconds : 0.0;
  }
};

OverheadSample measureTelemetryOverhead(const std::string &Source,
                                        unsigned Workers, unsigned Rounds) {
  std::vector<double> Off, On;
  for (unsigned R = 0; R < Rounds; ++R) {
    {
      Timer T;
      runOnce(Source, Workers);
      Off.push_back(T.seconds());
    }
    telemetry::setTraceLevel(telemetry::TraceLevel::Phase);
    {
      Timer T;
      runOnce(Source, Workers);
      On.push_back(T.seconds());
    }
    // Drain the collected round so buffers never grow across rounds.
    telemetry::setTraceLevel(telemetry::TraceLevel::Off);
    telemetry::resetTrace();
    telemetry::resetMetricsForTest();
  }
  auto Median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  OverheadSample O;
  O.OffMedianSeconds = Median(Off);
  O.OnMedianSeconds = Median(On);
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  // The coordinators in this bench re-exec this binary as their worker
  // processes.
  if (Argc > 1 && std::strcmp(Argv[1], "--worker") == 0)
    return shard::runWorkerLoop(STDIN_FILENO, STDOUT_FILENO);

  BenchTelemetry Telemetry("shard_scalability");
  const unsigned Rounds = 20;
  const std::string Source = iteratorApiSource() + spreadsheetSource();

  std::puts("Shard-tier scalability: worker processes vs throughput");
  rule();
  std::printf("%7s %7s | %12s %12s | %10s %7s %8s\n", "workers", "rounds",
              "clean run/s", "chaos run/s", "dispatches", "lost", "respawn");
  rule();

  std::vector<Sample> Samples;
  for (unsigned Workers : {1u, 2u, 4u}) {
    // Warm-up amortizes first-touch costs (example sources, fork/exec
    // page-ins) out of the measured sweep.
    if (Workers == 1)
      sweepOnce(Source, Workers, 2);
    Sample S = sweepOnce(Source, Workers, Rounds);
    Samples.push_back(S);
    std::printf("%7u %7u | %12.1f %12.1f | %10u %7u %8.3f\n", S.Workers,
                S.Rounds, S.cleanRunsPerSec(), S.chaosRunsPerSec(),
                S.Chaos.ShardsDispatched, S.Chaos.WorkersLost,
                S.respawnRate());
  }
  rule();

  const OverheadSample Overhead =
      measureTelemetryOverhead(Source, /*Workers=*/2, Rounds);
  const double OverheadPct = (Overhead.ratio() - 1.0) * 100.0;
  const bool GateOk = Overhead.ratio() <= 1.05;
  std::printf("\nTelemetry overhead (workers=2, interleaved off/on "
              "rounds, medians)\n");
  std::printf("  off %.4fs   on %.4fs   overhead %+.1f%%   gate <=+5%% "
              "[%s]\n",
              Overhead.OffMedianSeconds, Overhead.OnMedianSeconds,
              OverheadPct, GateOk ? "ok" : "EXCEEDED");

  std::ofstream Json("bench_shard_scalability.json");
  Json << "{\n  \"bench\": \"shard_scalability\",\n"
       << "  \"rounds\": " << Rounds << ",\n"
       << "  \"sweep\": [\n";
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    Json << "    {\"workers\": " << S.Workers
         << ", \"clean_runs_per_sec\": " << S.cleanRunsPerSec()
         << ", \"chaos_runs_per_sec\": " << S.chaosRunsPerSec()
         << ", \"dispatches\": " << S.Chaos.ShardsDispatched
         << ", \"redispatches\": " << S.Chaos.Redispatches
         << ", \"workers_spawned\": " << S.Chaos.WorkersSpawned
         << ", \"workers_lost\": " << S.Chaos.WorkersLost
         << ", \"respawn_rate\": " << S.respawnRate() << "}"
         << (I + 1 < Samples.size() ? "," : "") << "\n";
  }
  Json << "  ],\n"
       << "  \"telemetry_overhead\": {\"off_median_s\": "
       << Overhead.OffMedianSeconds
       << ", \"on_median_s\": " << Overhead.OnMedianSeconds
       << ", \"ratio\": " << Overhead.ratio()
       << ", \"gate_ok\": " << (GateOk ? "true" : "false") << "}\n"
       << "}\n";
  std::puts("Sweep written to bench_shard_scalability.json");
  if (!GateOk) {
    std::fprintf(stderr,
                 "bench_shard_scalability: telemetry overhead %.1f%% "
                 "exceeds the 5%% gate\n",
                 OverheadPct);
    return 1;
  }
  return 0;
}
