//===- anek_soak.cpp - Chaos-soak driver for the serving layer -------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Usage:
//   anek_soak [--mode serve|worker-chaos] [--requests N] [--workers N]
//             [--seed N] [--fault-rate F] [--queue-cap N]
//             [--min-dispatches N] [--out FILE]
//
// Mode "serve" (the default) drives N batch requests over the built-in
// examples with randomized, request-scoped faults and checks the serving
// invariants (see src/serve/Soak.h). --out writes the per-request JSONL
// stream for inspection.
//
// Mode "worker-chaos" drives N sharded inference runs under randomized
// worker chaos — real SIGKILLed/SIGSTOPped worker processes and corrupted
// result frames — and checks the shard tier's invariants (see
// src/shard/ShardSoak.h): every shard reaches exactly one terminal state,
// no summary is lost, and every run's output is byte-identical to the
// in-process -j1 baseline. --min-dispatches asserts the soak actually
// exercised the tier at scale. The tool re-execs itself as its own shard
// worker (the hidden --worker mode).
//
// Exit codes: 0 = every invariant held, 1 = violations (printed to
// stderr), 2 = usage error, 3 = crash (the soak's no-crash invariant
// failed by definition).
//
//===----------------------------------------------------------------------===//

#include "serve/Soak.h"
#include "shard/ShardSoak.h"
#include "shard/ShardWorker.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

int runServeSoak(const serve::SoakConfig &Cfg, const std::string &OutPath) {
  serve::SoakReport Report = serve::runSoak(Cfg);

  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "anek_soak: cannot write '%s'\n", OutPath.c_str());
      return 2;
    }
    for (const serve::BatchResult &Res : Report.Results)
      Out << Res.jsonLine() << '\n';
  }

  std::fprintf(stderr,
               "anek_soak: %zu request(s): %u ok, %u degraded, %u failed, "
               "%u timeout, %u shed; %zu violation(s)\n",
               Report.Results.size(),
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Ok)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Degraded)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Failed)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Timeout)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Shed)],
               Report.Violations.size());
  for (const std::string &V : Report.Violations)
    std::fprintf(stderr, "anek_soak: violation: %s\n", V.c_str());
  return Report.passed() ? 0 : 1;
}

int runWorkerChaosSoak(const shard::ShardSoakConfig &Cfg) {
  shard::ShardSoakReport Report = shard::runShardSoak(Cfg);
  std::fprintf(stderr,
               "anek_soak: worker-chaos: %u round(s) (%u with chaos): "
               "%u wave(s) remote, %u degraded; %u dispatch(es), "
               "%u re-dispatch(es); %u worker(s) spawned, %u lost; "
               "%u shard(s) quarantined; %zu violation(s)\n",
               Report.Rounds, Report.FaultedRounds,
               Report.Totals.WavesRemote, Report.Totals.WavesDegraded,
               Report.Totals.ShardsDispatched, Report.Totals.Redispatches,
               Report.Totals.WorkersSpawned, Report.Totals.WorkersLost,
               Report.Totals.ShardsQuarantined, Report.Violations.size());
  for (const std::string &V : Report.Violations)
    std::fprintf(stderr, "anek_soak: violation: %s\n", V.c_str());
  return Report.passed() ? 0 : 1;
}

int runSoakTool(int Argc, char **Argv) {
  serve::SoakConfig Cfg;
  std::string OutPath;
  std::string Mode = "serve";
  unsigned MinDispatches = 0;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  for (size_t I = 0; I < Args.size(); ++I) {
    auto Next = [&](const char *Flag) -> const std::string * {
      if (Args[I] != Flag)
        return nullptr;
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "anek_soak: %s needs a value\n", Flag);
        return nullptr;
      }
      return &Args[++I];
    };
    if (const std::string *V = Next("--mode")) {
      Mode = *V;
    } else if (const std::string *V = Next("--requests")) {
      Cfg.Requests = static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--workers")) {
      Cfg.Workers = static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--seed")) {
      Cfg.Seed = std::strtoull(V->c_str(), nullptr, 10);
    } else if (const std::string *V = Next("--fault-rate")) {
      Cfg.FaultRate = std::strtod(V->c_str(), nullptr);
    } else if (const std::string *V = Next("--queue-cap")) {
      Cfg.QueueCap = std::strtoul(V->c_str(), nullptr, 10);
    } else if (const std::string *V = Next("--min-dispatches")) {
      MinDispatches =
          static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--out")) {
      OutPath = *V;
    } else {
      std::fprintf(stderr, "anek_soak: unknown argument '%s'\n",
                   Args[I].c_str());
      return 2;
    }
  }
  if (Cfg.Requests == 0 || Cfg.Workers == 0 || Cfg.FaultRate < 0.0 ||
      Cfg.FaultRate > 1.0) {
    std::fputs("anek_soak: want --requests >= 1, --workers >= 1, "
               "--fault-rate in [0,1]\n",
               stderr);
    return 2;
  }
  if (Mode == "serve")
    return runServeSoak(Cfg, OutPath);
  if (Mode == "worker-chaos") {
    shard::ShardSoakConfig ShardCfg;
    ShardCfg.Rounds = Cfg.Requests;
    ShardCfg.Workers = Cfg.Workers;
    ShardCfg.Seed = Cfg.Seed;
    ShardCfg.FaultRate = Cfg.FaultRate;
    ShardCfg.MinDispatches = MinDispatches;
    return runWorkerChaosSoak(ShardCfg);
  }
  std::fprintf(stderr,
               "anek_soak: unknown mode '%s' (want serve|worker-chaos)\n",
               Mode.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // The worker-chaos soak's shard coordinators re-exec this binary as
  // their worker processes.
  if (Argc > 1 && std::strcmp(Argv[1], "--worker") == 0)
    return shard::runWorkerLoop(STDIN_FILENO, STDOUT_FILENO);
  try {
    return runSoakTool(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "anek_soak: internal error: %s\n", E.what());
    return 3;
  } catch (...) {
    std::fputs("anek_soak: internal error: unknown exception\n", stderr);
    return 3;
  }
}
