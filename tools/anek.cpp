//===- anek.cpp - Command-line driver for the ANEK pipeline ----------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Usage:
//   anek infer  <file.mjava | --example NAME> [--report] [--jobs N]
//   anek check  <file.mjava | --example NAME>   check declared specs only
//   anek verify <file.mjava | --example NAME>   infer, then check
//   anek pfg    <file.mjava | --example NAME> [--dot] [--method M]
//   anek ir     <file.mjava | --example NAME>
//   anek batch  <manifest.txt | ->              serve a request stream
//   anek report [--trace F] [--metrics F] [--batch F]   profile a run
//   anek faults                                 list injectable faults
//
// `anek batch` reads one request per manifest line ("-" = stdin; see
// src/serve/Manifest.h for the line grammar), drives them through the
// resource-governed serving layer (bounded queue, per-request deadlines
// and memory budgets, retry with backoff), and emits one JSONL line per
// request in completion order. SIGINT/SIGTERM drain gracefully: admission
// stops, in-flight requests finish, every request still gets its line.
//
// --jobs/-j N runs inference on N worker threads (default: one per
// hardware thread; 1 = fully sequential). Output is byte-identical for
// every N.
//
// --shards N (infer/verify/batch) farms wave batches to N crash-tolerant
// worker *processes* (re-exec'd as the hidden `anek --worker` mode) over
// the anek-shard-v2 pipe protocol; lost workers are respawned and their
// shards re-dispatched, and a shard that keeps killing workers degrades
// to in-process execution (src/shard/). stdout stays byte-identical to
// -j1; the shard tier reports its accounting on stderr.
// --heartbeat-timeout and --shard-max-frame-bytes tune the coordinator's
// hang deadline and per-frame decode cap.
//
// --trace FILE writes a Chrome trace_event JSON timeline (load it in
// chrome://tracing or ui.perfetto.dev); --metrics FILE writes the flat
// anek-metrics-v1 counters document. Either implies --trace-level solver
// unless --trace-level {off,phase,method,solver} narrows the collection.
// Telemetry never changes the inferred specs (see DESIGN.md, Telemetry).
//
// Under --shards the telemetry is distributed: workers collect at the
// coordinator's level, ship spans and metric deltas over the wire, and
// the single --trace file shows every worker as its own pid lane nested
// under the coordinator's dispatch spans (DESIGN.md, "Distributed
// telemetry"). The driver also forwards --trace-level — and --trace/
// --metrics when their paths carry a %p pid slot — to worker argv, so
// workers can additionally write their own artifact files.
//
// `anek report` digests the artifacts a run wrote (--trace/--metrics
// files, a batch JSONL) into a profile: per-phase time, top spans, cache
// hit rate, shard-tier effort, queue-wait vs solve split, per-request
// outcomes. --json emits the machine-readable anek-report-v1 document.
//
// Built-in examples: spreadsheet, file, field.
//
// Exit codes (the driver contract, see DESIGN.md):
//   0  success, no error diagnostics
//   1  diagnostics were produced (bad input, degraded inference errors)
//   2  usage error (unknown command/flags, missing input)
//   3  internal error (invariant failure, uncaught exception)
//
//===----------------------------------------------------------------------===//

#include "analysis/IrBuilder.h"
#include "cache/SummaryCache.h"
#include "corpus/ExampleSources.h"
#include "factor/Kernels.h"
#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"
#include "plural/Checker.h"
#include "report/Report.h"
#include "serve/BatchRunner.h"
#include "serve/Manifest.h"
#include "shard/ShardCoordinator.h"
#include "shard/ShardWorker.h"
#include "shard/Wire.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

enum ExitCode { ExitOk = 0, ExitDiagnostics = 1, ExitUsage = 2,
                ExitInternal = 3 };

void usage() {
  std::fputs("usage: anek <infer|check|verify|pfg|ir> "
             "<file.mjava | --example spreadsheet|file|field> "
             "[--dot] [--method NAME] [--report] [--fault SPEC] "
             "[--jobs N | -j N] [--shards N] "
             "[--heartbeat-timeout SECS] [--shard-max-frame-bytes N] "
             "[--cache DIR] "
             "[--kernel-backend scalar|avx2|neon|auto] [--trace FILE] "
             "[--metrics FILE] [--trace-level off|phase|method|solver]\n"
             "       anek batch <manifest.txt | -> "
             "[--workers N] "
             "[--queue-cap N] [--retries N] [--deadline SECS] "
             "[--mem-budget BYTES[k|m|g]] [--jobs N | -j N] [--shards N] "
             "[--heartbeat-timeout SECS] [--shard-max-frame-bytes N] "
             "[--cache DIR] [--seed N] [--out FILE] [--shed-when-full] "
             "[--kernel-backend NAME] [--fault SPEC] "
             "[--slow-request SECS] "
             "[--trace FILE] [--metrics FILE] [--trace-level LEVEL]\n"
             "       anek report [--trace FILE] [--metrics FILE] "
             "[--batch FILE] [--json] [--top N]\n"
             "       anek faults\n"
             "(--fault list prints the fault vocabulary; %p in --out/"
             "--trace/--metrics paths expands to the pid)\n",
             stderr);
}

/// Lists every injectable fault kind with its one-line description.
void printFaultTable() {
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    std::printf("%-16s %s\n", faultKindName(Kind),
                faultKindDescription(Kind));
  }
}

/// Expands "%p" to the pid, so concurrent batch runs sharing a path
/// template never clobber each other's artifacts.
std::string expandPathTemplate(std::string Path) {
  std::string Pid = std::to_string(static_cast<long>(::getpid()));
  size_t Pos = 0;
  while ((Pos = Path.find("%p", Pos)) != std::string::npos) {
    Path.replace(Pos, 2, Pid);
    Pos += Pid.size();
  }
  return Path;
}

/// Writes the requested telemetry artifacts when the driver exits through
/// any path (success, diagnostics, even an exception unwinding through
/// run()); a partial trace of a failed run is exactly when you want one.
class TelemetryFlusher {
public:
  std::string TracePath;
  std::string MetricsPath;

  ~TelemetryFlusher() {
    std::string Error;
    if (!TracePath.empty() &&
        !telemetry::writeChromeTrace(TracePath, &Error))
      std::fprintf(stderr, "anek: %s\n", Error.c_str());
    if (!MetricsPath.empty() &&
        !telemetry::writeMetricsFile(MetricsPath, &Error))
      std::fprintf(stderr, "anek: %s\n", Error.c_str());
  }
};

/// Splits "--flag=value" and "--flag value" into a value; false when the
/// flag does not match or the value is missing.
bool flagValue(const std::vector<std::string> &Args, size_t &I,
               const char *Flag, std::string &Out) {
  const std::string &Arg = Args[I];
  size_t FlagLen = std::strlen(Flag);
  if (Arg.compare(0, FlagLen, Flag) != 0)
    return false;
  if (Arg.size() > FlagLen && Arg[FlagLen] == '=') {
    Out = Arg.substr(FlagLen + 1);
    return true;
  }
  if (Arg.size() == FlagLen && I + 1 < Args.size()) {
    Out = Args[++I];
    return true;
  }
  return false;
}

/// Parses a frame-payload cap: plain bytes, within the protocol's
/// [MinConfigurableFramePayload, MaxFramePayload] window.
bool parseFrameCap(const std::string &Value, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Value.c_str(), &End, 10);
  if (!End || *End != '\0' || Value.empty())
    return false;
  if (V < shard::MinConfigurableFramePayload || V > shard::MaxFramePayload)
    return false;
  Out = V;
  return true;
}

/// Parses a strictly positive seconds value.
bool parseSeconds(const std::string &Value, double &Out) {
  char *End = nullptr;
  double V = std::strtod(Value.c_str(), &End);
  if (!End || *End != '\0' || Value.empty() || !(V > 0.0))
    return false;
  Out = V;
  return true;
}

/// The telemetry flags the driver forwards to `anek --worker` child
/// processes (S1 of the distributed-telemetry design): the effective
/// collection level always (so a worker's *own* spans exist to ship), and
/// the artifact paths only when they carry a %p pid slot — without one,
/// every worker would clobber the coordinator's file.
std::vector<std::string> workerTelemetryArgv(const std::string &RawTracePath,
                                             const std::string &RawMetricsPath) {
  std::vector<std::string> Out;
  telemetry::TraceLevel Level = telemetry::traceLevel();
  if (Level == telemetry::TraceLevel::Off)
    return Out;
  Out.push_back("--trace-level");
  Out.push_back(telemetry::traceLevelName(Level));
  if (RawTracePath.find("%p") != std::string::npos) {
    Out.push_back("--trace");
    Out.push_back(RawTracePath);
  }
  if (RawMetricsPath.find("%p") != std::string::npos) {
    Out.push_back("--metrics");
    Out.push_back(RawMetricsPath);
  }
  return Out;
}

/// The hidden `anek --worker [telemetry flags]` mode: parse the flags the
/// coordinator forwarded (each worker expands %p to its own pid), then
/// serve the anek-shard-v2 protocol over stdin/stdout. Unknown flags are
/// ignored rather than fatal — both ends are the same binary, so a
/// mismatch is a bug to survive, not hostile input to reject.
int runWorkerMode(int Argc, char **Argv) {
  TelemetryFlusher Telemetry;
  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  for (size_t I = 0; I < Args.size(); ++I) {
    std::string Value;
    if (flagValue(Args, I, "--trace", Value)) {
      Telemetry.TracePath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--metrics", Value)) {
      Telemetry.MetricsPath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--trace-level", Value)) {
      telemetry::TraceLevel Level;
      if (telemetry::parseTraceLevel(Value, Level))
        telemetry::setTraceLevel(Level);
    }
  }
  return shard::runWorkerLoop(STDIN_FILENO, STDOUT_FILENO);
}

/// `anek report`: profile a finished run from its artifact files.
int runReport(const std::vector<std::string> &Args) {
  std::string TracePath, MetricsPath, BatchPath;
  bool Json = false;
  unsigned TopK = report::DefaultTopK;
  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    if (flagValue(Args, I, "--trace", Value)) {
      TracePath = Value;
    } else if (flagValue(Args, I, "--metrics", Value)) {
      MetricsPath = Value;
    } else if (flagValue(Args, I, "--batch", Value)) {
      BatchPath = Value;
    } else if (Args[I] == "--json") {
      Json = true;
    } else if (flagValue(Args, I, "--top", Value)) {
      char *End = nullptr;
      unsigned long V = std::strtoul(Value.c_str(), &End, 10);
      if (!End || *End != '\0' || Value.empty() || V == 0) {
        std::fprintf(stderr, "anek: bad top-k '%s'\n", Value.c_str());
        return ExitUsage;
      }
      TopK = static_cast<unsigned>(V);
    } else {
      std::fprintf(stderr, "anek: unknown report argument '%s'\n",
                   Args[I].c_str());
      usage();
      return ExitUsage;
    }
  }
  if (TracePath.empty() && MetricsPath.empty() && BatchPath.empty()) {
    std::fprintf(stderr,
                 "anek: report needs at least one of --trace, --metrics, "
                 "--batch\n");
    usage();
    return ExitUsage;
  }
  Expected<report::Profile> P =
      report::buildProfile(TracePath, MetricsPath, BatchPath);
  if (!P) {
    std::fprintf(stderr, "anek: %s\n", P.status().str().c_str());
    return ExitDiagnostics;
  }
  std::string Rendered =
      Json ? report::renderJson(*P, TopK) : report::renderText(*P, TopK);
  std::fputs(Rendered.c_str(), stdout);
  return ExitOk;
}

bool loadSource(const std::string &Arg, bool IsExample, std::string &Out) {
  if (IsExample) {
    if (Arg == "spreadsheet") {
      Out = iteratorApiSource() + spreadsheetSource();
      return true;
    }
    if (Arg == "file") {
      Out = fileProtocolSource();
      return true;
    }
    if (Arg == "field") {
      Out = fieldExampleSource();
      return true;
    }
    std::fprintf(stderr, "anek: unknown example '%s'\n", Arg.c_str());
    return false;
  }
  std::ifstream In(Arg);
  if (!In) {
    std::fprintf(stderr, "anek: cannot open '%s'\n", Arg.c_str());
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// One line per analyzed method: which solver's marginals were used and
/// how the cascade got there.
void printReports(const InferResult &Inference) {
  for (const auto &[M, Report] : Inference.Reports) {
    if (Report.Failed) {
      std::printf("// method %s: FAILED (%s)\n", M->qualifiedName().c_str(),
                  Report.Error.c_str());
      continue;
    }
    std::printf("// method %s: solver=%s%s converged=%s iters=%u "
                "residual=%.2g%s%s\n",
                M->qualifiedName().c_str(), solverChoiceName(Report.Used),
                Report.Fallback ? " (fallback)" : "",
                Report.Solve.Converged ? "yes" : "no",
                Report.Solve.Iterations, Report.Solve.Residual,
                Report.Reason.empty() ? "" : " reason: ",
                Report.Reason.c_str());
  }
}

/// Set by the SIGINT/SIGTERM handler; the batch runner polls it and
/// drains gracefully (finish in-flight, shed the rest, flush output).
volatile std::sig_atomic_t BatchDrainFlag = 0;

void batchDrainHandler(int) { BatchDrainFlag = 1; }

int runBatch(const std::vector<std::string> &Args) {
  serve::BatchOptions Opts;
  std::string ManifestPath, OutPath;
  TelemetryFlusher Telemetry;
  // Raw (unexpanded) artifact paths, kept for worker propagation: each
  // worker expands %p against its *own* pid.
  std::string RawTracePath, RawMetricsPath;
  bool HaveTraceLevel = false;
  // Shard-tier knobs, threaded into every per-request coordinator.
  double HeartbeatTimeout = 0.0;
  uint64_t ShardMaxFrameBytes = 0;

  auto ParseUnsigned = [](const std::string &Value, unsigned &Out) {
    char *End = nullptr;
    unsigned long V = std::strtoul(Value.c_str(), &End, 10);
    if (!End || *End != '\0' || Value.empty())
      return false;
    Out = static_cast<unsigned>(V);
    return true;
  };

  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    unsigned Parsed = 0;
    if (flagValue(Args, I, "--trace", Value)) {
      RawTracePath = Value;
      Telemetry.TracePath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--metrics", Value)) {
      RawMetricsPath = Value;
      Telemetry.MetricsPath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--trace-level", Value)) {
      telemetry::TraceLevel Level;
      if (!telemetry::parseTraceLevel(Value, Level)) {
        std::fprintf(stderr, "anek: bad trace level '%s'\n", Value.c_str());
        return ExitUsage;
      }
      telemetry::setTraceLevel(Level);
      HaveTraceLevel = true;
    } else if (flagValue(Args, I, "--slow-request", Value)) {
      char *End = nullptr;
      Opts.SlowRequestSeconds = std::strtod(Value.c_str(), &End);
      if (!End || *End != '\0' || Value.empty() ||
          Opts.SlowRequestSeconds < 0.0) {
        std::fprintf(stderr, "anek: bad slow-request threshold '%s'\n",
                     Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--out", Value)) {
      OutPath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--workers", Value)) {
      if (!ParseUnsigned(Value, Parsed) || Parsed == 0) {
        std::fprintf(stderr, "anek: bad worker count '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.Workers = Parsed;
    } else if (flagValue(Args, I, "--heartbeat-timeout", Value)) {
      if (!parseSeconds(Value, HeartbeatTimeout)) {
        std::fprintf(stderr, "anek: bad heartbeat timeout '%s'\n",
                     Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--shard-max-frame-bytes", Value)) {
      if (!parseFrameCap(Value, ShardMaxFrameBytes)) {
        std::fprintf(stderr,
                     "anek: bad frame cap '%s' (want %llu..%llu bytes)\n",
                     Value.c_str(),
                     static_cast<unsigned long long>(
                         shard::MinConfigurableFramePayload),
                     static_cast<unsigned long long>(shard::MaxFramePayload));
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--queue-cap", Value)) {
      if (!ParseUnsigned(Value, Parsed) || Parsed == 0) {
        std::fprintf(stderr, "anek: bad queue cap '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.QueueCap = Parsed;
    } else if (flagValue(Args, I, "--retries", Value)) {
      if (!ParseUnsigned(Value, Parsed) || Parsed == 0) {
        std::fprintf(stderr, "anek: bad retry count '%s' (want total "
                             "attempts >= 1)\n",
                     Value.c_str());
        return ExitUsage;
      }
      Opts.MaxAttempts = Parsed;
    } else if (flagValue(Args, I, "--seed", Value)) {
      char *End = nullptr;
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (!End || *End != '\0' || Value.empty()) {
        std::fprintf(stderr, "anek: bad seed '%s'\n", Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--deadline", Value)) {
      char *End = nullptr;
      Opts.DefaultDeadlineSeconds = std::strtod(Value.c_str(), &End);
      if (!End || *End != '\0' || Opts.DefaultDeadlineSeconds < 0.0) {
        std::fprintf(stderr, "anek: bad deadline '%s'\n", Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--mem-budget", Value)) {
      // Reuse the manifest's byte-count grammar (k/m/g suffixes).
      Expected<std::vector<serve::BatchRequest>> R =
          serve::parseManifest("probe mem=" + Value);
      if (!R || R->size() != 1) {
        std::fprintf(stderr, "anek: bad mem budget '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.DefaultMemBudgetBytes = (*R)[0].MemBudgetBytes;
    } else if (flagValue(Args, I, "--jobs", Value) ||
               flagValue(Args, I, "-j", Value)) {
      if (!ParseUnsigned(Value, Parsed) || Parsed == 0) {
        std::fprintf(stderr, "anek: bad thread count '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.DefaultJobs = Parsed;
    } else if (flagValue(Args, I, "--shards", Value)) {
      if (!ParseUnsigned(Value, Parsed)) {
        std::fprintf(stderr, "anek: bad shard count '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.DefaultShards = Parsed;
    } else if (flagValue(Args, I, "--cache", Value)) {
      if (Value.empty()) {
        std::fprintf(stderr, "anek: empty cache directory\n");
        return ExitUsage;
      }
      Opts.DefaultCacheDir = Value;
    } else if (Args[I] == "--shed-when-full") {
      Opts.ShedWhenFull = true;
    } else if (flagValue(Args, I, "--fault", Value)) {
      if (Value == "list") {
        printFaultTable();
        return ExitOk;
      }
      if (Status S = faults::activateSpec(Value); !S) {
        std::fprintf(stderr, "anek: %s\n", S.str().c_str());
        return ExitUsage;
      }
    } else if (Args[I] == "-" || Args[I][0] != '-') {
      ManifestPath = Args[I];
    } else {
      std::fprintf(stderr, "anek: unknown flag '%s'\n", Args[I].c_str());
      usage();
      return ExitUsage;
    }
  }
  if (!HaveTraceLevel &&
      (!Telemetry.TracePath.empty() || !Telemetry.MetricsPath.empty()))
    telemetry::setTraceLevel(telemetry::TraceLevel::Phase);
  if (ManifestPath.empty()) {
    usage();
    return ExitUsage;
  }

  std::string ManifestText;
  if (ManifestPath == "-") {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    ManifestText = Buffer.str();
  } else {
    std::ifstream In(ManifestPath);
    if (!In) {
      std::fprintf(stderr, "anek: cannot open '%s'\n", ManifestPath.c_str());
      return ExitDiagnostics;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    ManifestText = Buffer.str();
  }
  Expected<std::vector<serve::BatchRequest>> Requests =
      serve::parseManifest(ManifestText);
  if (!Requests) {
    std::fprintf(stderr, "anek: %s\n", Requests.status().str().c_str());
    return ExitDiagnostics;
  }

  std::ofstream OutFile;
  std::FILE *OutStream = stdout;
  if (!OutPath.empty()) {
    OutFile.open(OutPath);
    if (!OutFile) {
      std::fprintf(stderr, "anek: cannot write '%s'\n", OutPath.c_str());
      return ExitDiagnostics;
    }
  }
  // One JSONL line per terminal result, flushed immediately: a consumer
  // tailing the stream (or a drained run) never sees a partial batch
  // without the lines that were already decided.
  Opts.Sink = [&](const serve::BatchResult &Res) {
    std::string Line = Res.jsonLine();
    if (OutFile.is_open()) {
      OutFile << Line << '\n';
      OutFile.flush();
    } else {
      std::fprintf(OutStream, "%s\n", Line.c_str());
      std::fflush(OutStream);
    }
  };
  // The shard tier is always wired for a batch: a manifest line's
  // shards=N (or --shards as the batch default) farms that request's
  // waves to worker processes; with both at 0 the factory simply never
  // runs. Serve stays shard-agnostic — this injection is its only path
  // to src/shard/.
  uint64_t BatchSeed = Opts.Seed;
  std::vector<std::string> WorkerTelemetry =
      workerTelemetryArgv(RawTracePath, RawMetricsPath);
  Opts.Shards = [BatchSeed, WorkerTelemetry, HeartbeatTimeout,
                 ShardMaxFrameBytes](
                    Program &Prog, const std::string &Source,
                    const InferOptions &InferOpts, unsigned Shards)
      -> std::unique_ptr<WaveShardExecutor> {
    shard::CoordinatorOptions Co;
    Co.Workers = Shards;
    Co.Retry.Seed = BatchSeed;
    Co.WorkerExtraArgv = WorkerTelemetry;
    if (HeartbeatTimeout > 0.0)
      Co.HeartbeatTimeoutSeconds = HeartbeatTimeout;
    Co.MaxFrameBytes = ShardMaxFrameBytes;
    return std::make_unique<shard::ShardCoordinator>(Prog, Source,
                                                     InferOpts, Co);
  };
  Opts.DrainSignal = &BatchDrainFlag;
  std::signal(SIGINT, batchDrainHandler);
  std::signal(SIGTERM, batchDrainHandler);

  // The cache tier is likewise always wired: a manifest line's cache=DIR
  // (or --cache as the batch default) memoizes that request's solves in
  // DIR. The driver owns one SummaryCache per distinct directory, shared
  // across the requests naming it (the instances are thread-safe and must
  // outlive the runner — they are captured by reference below).
  std::mutex CachesMutex;
  std::map<std::string, std::unique_ptr<cache::SummaryCache>> Caches;
  Opts.Cache = [&CachesMutex, &Caches](const std::string &Dir) -> SolveCache * {
    std::lock_guard<std::mutex> Lock(CachesMutex);
    std::unique_ptr<cache::SummaryCache> &Slot = Caches[Dir];
    if (!Slot)
      Slot = std::make_unique<cache::SummaryCache>(Dir);
    return Slot.get();
  };

  serve::BatchRunner Runner(Opts);
  std::vector<serve::BatchResult> Results = Runner.run(Requests.take());

  unsigned Counts[serve::NumTerminalStates] = {};
  for (const serve::BatchResult &Res : Results)
    Counts[static_cast<unsigned>(Res.State)]++;
  {
    std::lock_guard<std::mutex> Lock(CachesMutex);
    if (!Caches.empty()) {
      CacheStats Total;
      for (const auto &[Dir, C] : Caches) {
        CacheStats S = C->stats();
        Total.Hits += S.Hits;
        Total.Misses += S.Misses;
        Total.Invalidated += S.Invalidated;
        Total.Corrupt += S.Corrupt;
        Total.Stores += S.Stores;
      }
      std::fprintf(stderr,
                   "anek: cache: %u hit(s), %u miss(es), %u invalidated, "
                   "%u corrupt, %u store(s) across %zu director%s\n",
                   Total.Hits, Total.Misses, Total.Invalidated, Total.Corrupt,
                   Total.Stores, Caches.size(),
                   Caches.size() == 1 ? "y" : "ies");
    }
  }
  std::fprintf(stderr,
               "anek: batch: %zu request(s): %u ok, %u degraded, %u failed, "
               "%u timeout, %u shed%s\n",
               Results.size(),
               Counts[static_cast<unsigned>(serve::TerminalState::Ok)],
               Counts[static_cast<unsigned>(serve::TerminalState::Degraded)],
               Counts[static_cast<unsigned>(serve::TerminalState::Failed)],
               Counts[static_cast<unsigned>(serve::TerminalState::Timeout)],
               Counts[static_cast<unsigned>(serve::TerminalState::Shed)],
               Runner.drainRequested() ? " (drained)" : "");
  bool AllOk = Counts[static_cast<unsigned>(serve::TerminalState::Ok)] ==
               Results.size();
  return AllOk ? ExitOk : ExitDiagnostics;
}

int run(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty()) {
    usage();
    return ExitUsage;
  }
  // --kernel-backend selects the process-wide solver SIMD dispatch
  // (scalar|avx2|neon|auto), so it applies to every command; handle and
  // strip it before command parsing. ANEK_FORCE_SCALAR=1 in the
  // environment has the same effect as "scalar".
  for (size_t I = 0; I < Args.size();) {
    std::string Value;
    size_t Start = I;
    if (flagValue(Args, I, "--kernel-backend", Value)) {
      if (Status S = kern::setKernelBackend(Value); !S) {
        std::fprintf(stderr, "anek: %s\n", S.str().c_str());
        return ExitUsage;
      }
      Args.erase(Args.begin() + Start, Args.begin() + I + 1);
      I = Start;
    } else {
      ++I;
    }
  }
  if (Args.empty()) {
    usage();
    return ExitUsage;
  }
  std::string Command = Args[0];
  if (Command == "faults") {
    printFaultTable();
    return ExitOk;
  }
  if (Command == "batch")
    return runBatch(Args);
  if (Command == "report")
    return runReport(Args);
  if (Command != "infer" && Command != "check" && Command != "verify" &&
      Command != "pfg" && Command != "ir") {
    std::fprintf(stderr, "anek: unknown command '%s'\n", Command.c_str());
    usage();
    return ExitUsage;
  }
  std::string Input;
  bool IsExample = false;
  bool WantDot = false;
  bool WantReport = false;
  // 0 = auto (one worker per hardware thread); the schedule makes every
  // value produce byte-identical output, so auto is a safe default.
  unsigned Jobs = 0;
  // 0 = no sharding; N = farm waves to N worker processes (infer/verify).
  unsigned ShardWorkers = 0;
  double HeartbeatTimeout = 0.0;   // 0 = the coordinator default.
  uint64_t ShardMaxFrameBytes = 0; // 0 = the protocol default.
  // Summary-cache directory (infer/verify); empty = no caching.
  std::string CacheDir;
  std::string MethodFilter;
  TelemetryFlusher Telemetry;
  // Raw (unexpanded) artifact paths, kept for worker propagation.
  std::string RawTracePath, RawMetricsPath;
  bool HaveTraceLevel = false;
  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    if (flagValue(Args, I, "--trace", Value)) {
      RawTracePath = Value;
      Telemetry.TracePath = expandPathTemplate(Value);
      continue;
    }
    if (flagValue(Args, I, "--metrics", Value)) {
      RawMetricsPath = Value;
      Telemetry.MetricsPath = expandPathTemplate(Value);
      continue;
    }
    if (flagValue(Args, I, "--trace-level", Value)) {
      telemetry::TraceLevel Level;
      if (!telemetry::parseTraceLevel(Value, Level)) {
        std::fprintf(stderr,
                     "anek: bad trace level '%s' "
                     "(want off|phase|method|solver)\n",
                     Value.c_str());
        return ExitUsage;
      }
      telemetry::setTraceLevel(Level);
      HaveTraceLevel = true;
      continue;
    }
    if (Args[I] == "--example" && I + 1 < Args.size()) {
      IsExample = true;
      Input = Args[++I];
    } else if (Args[I] == "--dot") {
      WantDot = true;
    } else if (Args[I] == "--report") {
      WantReport = true;
    } else if (((Args[I] == "--jobs" || Args[I] == "-j") &&
                I + 1 < Args.size()) ||
               (Args[I].size() > 2 && Args[I].compare(0, 2, "-j") == 0)) {
      // Accept "-j N", "--jobs N" and the joined "-jN" spelling.
      const std::string &Count =
          Args[I].size() > 2 ? Args[I].substr(2) : Args[I + 1];
      char *End = nullptr;
      unsigned long Value = std::strtoul(Count.c_str(), &End, 10);
      if (!End || *End != '\0' || Value == 0) {
        std::fprintf(stderr, "anek: bad thread count '%s' (want N >= 1)\n",
                     Count.c_str());
        return ExitUsage;
      }
      Jobs = static_cast<unsigned>(Value);
      if (Args[I].size() == 2 || Args[I] == "--jobs")
        ++I;
    } else if (flagValue(Args, I, "--shards", Value)) {
      char *End = nullptr;
      unsigned long Count = std::strtoul(Value.c_str(), &End, 10);
      if (!End || *End != '\0' || Value.empty()) {
        std::fprintf(stderr, "anek: bad shard count '%s'\n", Value.c_str());
        return ExitUsage;
      }
      ShardWorkers = static_cast<unsigned>(Count);
    } else if (flagValue(Args, I, "--heartbeat-timeout", Value)) {
      if (!parseSeconds(Value, HeartbeatTimeout)) {
        std::fprintf(stderr, "anek: bad heartbeat timeout '%s'\n",
                     Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--shard-max-frame-bytes", Value)) {
      if (!parseFrameCap(Value, ShardMaxFrameBytes)) {
        std::fprintf(stderr,
                     "anek: bad frame cap '%s' (want %llu..%llu bytes)\n",
                     Value.c_str(),
                     static_cast<unsigned long long>(
                         shard::MinConfigurableFramePayload),
                     static_cast<unsigned long long>(shard::MaxFramePayload));
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--cache", Value)) {
      if (Value.empty()) {
        std::fprintf(stderr, "anek: empty cache directory\n");
        return ExitUsage;
      }
      CacheDir = Value;
    } else if (Args[I] == "--method" && I + 1 < Args.size()) {
      MethodFilter = Args[++I];
    } else if (flagValue(Args, I, "--fault", Value)) {
      if (Value == "list") {
        printFaultTable();
        return ExitOk;
      }
      if (Status S = faults::activateSpec(Value); !S) {
        std::fprintf(stderr, "anek: %s\n", S.str().c_str());
        return ExitUsage;
      }
    } else if (!Args[I].empty() && Args[I][0] == '-') {
      std::fprintf(stderr, "anek: unknown flag '%s'\n", Args[I].c_str());
      usage();
      return ExitUsage;
    } else {
      Input = Args[I];
    }
  }
  // Requesting an output implies collection: default to the finest level
  // so --trace/--metrics alone capture everything. --trace-level still
  // wins (including an explicit "off" to measure the disabled cost).
  if (!HaveTraceLevel &&
      (!Telemetry.TracePath.empty() || !Telemetry.MetricsPath.empty()))
    telemetry::setTraceLevel(telemetry::TraceLevel::Solver);
  if (Input.empty()) {
    usage();
    return ExitUsage;
  }

  std::string Source;
  if (!loadSource(Input, IsExample, Source))
    return ExitDiagnostics;

  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    std::fputs(Diags.str().c_str(), stderr);
    return ExitDiagnostics;
  }
  if (Diags.warningCount())
    std::fputs(Diags.str().c_str(), stderr);
  Diags.clear();

  auto ForEachMethod = [&](auto &&Fn) {
    for (MethodDecl *M : Prog->methodsWithBodies())
      if (MethodFilter.empty() || M->Name == MethodFilter ||
          M->qualifiedName() == MethodFilter)
        Fn(M);
  };

  if (Command == "ir") {
    ForEachMethod([&](MethodDecl *M) {
      std::printf("=== %s\n%s\n", M->qualifiedName().c_str(),
                  lowerToIr(*M).str().c_str());
    });
    return ExitOk;
  }

  if (Command == "pfg") {
    ForEachMethod([&](MethodDecl *M) {
      MethodIr Ir = lowerToIr(*M);
      Pfg G = buildPfg(Ir);
      if (WantDot)
        std::printf("// %s\n%s\n", M->qualifiedName().c_str(),
                    G.dot().c_str());
      else
        std::printf("%s\n", G.str().c_str());
    });
    return ExitOk;
  }

  if (Command == "check") {
    CheckResult Result = runChecker(*Prog, declaredSpecsOnly());
    for (const CheckWarning &W : Result.Warnings)
      std::printf("%s: warning: %s\n", W.Loc.str().c_str(),
                  W.Message.c_str());
    std::printf("%u warning(s) across %u method(s)\n", Result.warningCount(),
                Result.MethodsChecked);
    return ExitOk;
  }

  if (Command == "infer" || Command == "verify") {
    InferOptions InferOpts;
    InferOpts.Parallelism = Jobs;
    // --shards N: farm waves to N worker processes. The coordinator is
    // built from the same options the workers will receive; by the
    // executor contract stdout stays byte-identical to -j1, so the shard
    // accounting goes to stderr below.
    std::unique_ptr<shard::ShardCoordinator> Coordinator;
    if (ShardWorkers > 0) {
      shard::CoordinatorOptions CoOpts;
      CoOpts.Workers = ShardWorkers;
      if (HeartbeatTimeout > 0.0)
        CoOpts.HeartbeatTimeoutSeconds = HeartbeatTimeout;
      CoOpts.MaxFrameBytes = ShardMaxFrameBytes;
      CoOpts.WorkerExtraArgv =
          workerTelemetryArgv(RawTracePath, RawMetricsPath);
      Coordinator = std::make_unique<shard::ShardCoordinator>(
          *Prog, Source, InferOpts, CoOpts);
      InferOpts.ShardExec = Coordinator.get();
    }
    // --cache DIR: memoize solves in DIR. Like the shard tier, caching
    // never changes stdout (a warm run is byte-identical to a cold -j1
    // run — see DESIGN.md); the accounting goes to stderr below.
    std::unique_ptr<cache::SummaryCache> Cache;
    if (!CacheDir.empty()) {
      Cache = std::make_unique<cache::SummaryCache>(CacheDir);
      InferOpts.Cache = Cache.get();
    }
    InferResult Inference = runAnekInfer(*Prog, InferOpts, &Diags);
    if (Cache) {
      const CacheStats &C = Inference.Cache;
      std::fprintf(stderr,
                   "anek: cache: %u hit(s), %u miss(es), %u invalidated, "
                   "%u corrupt, %u store(s)\n",
                   C.Hits, C.Misses, C.Invalidated, C.Corrupt, C.Stores);
    }
    if (ShardWorkers > 0) {
      const ShardStats &S = Inference.Shard;
      std::fprintf(stderr,
                   "anek: shards: %u wave(s) remote, %u degraded; "
                   "%u dispatch(es), %u re-dispatch(es); "
                   "%u worker(s) spawned, %u lost; "
                   "%u shard(s) quarantined\n",
                   S.WavesRemote, S.WavesDegraded, S.ShardsDispatched,
                   S.Redispatches, S.WorkersSpawned, S.WorkersLost,
                   S.ShardsQuarantined);
    }
    if (Diags.all().size())
      std::fputs(Diags.str().c_str(), stderr);
    int Exit = Diags.hasErrors() ? ExitDiagnostics : ExitOk;
    if (Command == "infer") {
      PrintOptions Opts;
      Opts.SpecFor = [&](const MethodDecl &M) {
        return *Inference.specFor(&M);
      };
      std::printf("%s", printProgram(*Prog, Opts).c_str());
      if (WantReport)
        printReports(Inference);
      std::printf("// inferred %u spec(s) over %u method(s), "
                  "%u worklist picks, %.3fs solving",
                  Inference.inferredAnnotationCount(),
                  Inference.MethodsAnalyzed, Inference.WorklistPicks,
                  Inference.SolveSeconds);
      if (Inference.FallbackSolves || Inference.MethodsFailed)
        std::printf(", %u fallback solve(s), %u method(s) failed",
                    Inference.FallbackSolves, Inference.MethodsFailed);
      std::printf("\n");
      return Exit;
    }
    SpecProvider Specs = [&](const MethodDecl *M) {
      return Inference.specFor(M);
    };
    CheckResult Result = runChecker(*Prog, Specs);
    for (const CheckWarning &W : Result.Warnings)
      std::printf("%s: warning: %s\n", W.Loc.str().c_str(),
                  W.Message.c_str());
    if (WantReport)
      printReports(Inference);
    std::printf("inferred %u spec(s); %u warning(s) across %u method(s)\n",
                Inference.inferredAnnotationCount(), Result.warningCount(),
                Result.MethodsChecked);
    return Exit;
  }

  usage();
  return ExitUsage;
}

} // namespace

int main(int Argc, char **Argv) {
  // The driver contract: internal failures are reported, never aborted
  // through. Exit code 3 tells scripts "bug in anek", distinct from
  // "bad input" (1) and "bad invocation" (2).
  try {
    // Hidden worker mode: a shard coordinator re-execs this binary as
    // `anek --worker [telemetry flags]` and speaks anek-shard-v2 over its
    // stdin/stdout. Dispatched before general flag parsing so no other
    // flag can perturb it; the worker mode parses only the telemetry
    // flags the coordinator forwarded.
    if (Argc > 1 && std::strcmp(Argv[1], "--worker") == 0)
      return runWorkerMode(Argc, Argv);
    return run(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "anek: internal error: %s\n", E.what());
    return ExitInternal;
  } catch (...) {
    std::fputs("anek: internal error: unknown exception\n", stderr);
    return ExitInternal;
  }
}
