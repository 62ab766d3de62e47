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
//   anek report [--trace F] [--metrics F]      profile a run
//   anek faults                                 list injectable faults
//
// --jobs N, -j N or -jN runs inference on N worker threads, 1 <= N <= 256
// (default: one per hardware thread; 1 = fully sequential). Output is
// byte-identical for every N.
//
// --cache DIR memoizes SOLVE results in DIR; a warm rerun replays them
// byte-identically. The accounting goes to stderr: what the cache
// answered for the states this run had not seen, and how many picks
// replayed a state the run had already seen.
//
// --trace FILE writes a Chrome trace_event JSON timeline (load it in
// chrome://tracing or ui.perfetto.dev); --metrics FILE writes the flat
// anek-metrics-v1 counters document. Collection follows the artifacts:
// spans record only under --trace, counters and histograms only under
// --metrics. Telemetry never changes the inferred specs (see DESIGN.md,
// Telemetry).
//
// `anek report` digests the artifacts a run wrote (--trace/--metrics
// files) into a profile: per-phase time, top spans, cache hit rate, the
// serial merge's share of phase 2, replayed share of picks. --json emits
// the machine-readable anek-report-v1 document.
//
// Built-in examples: spreadsheet, file, field, and the paper workloads
// pmd (the Table 1 corpus, seed 1993524) and table3 (the Table 3 chain
// of 768 helpers).
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
#include "corpus/InlineComparison.h"
#include "corpus/PmdGenerator.h"
#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"
#include "plural/Checker.h"
#include "report/Report.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace anek;

namespace {

enum ExitCode { ExitOk = 0, ExitDiagnostics = 1, ExitUsage = 2,
                ExitInternal = 3 };

void usage() {
  std::fprintf(stderr,
               "usage: anek <infer|check|verify|pfg|ir> "
               "<file.mjava | --example spreadsheet|file|field|pmd|table3> "
               "[--dot] [--method NAME] [--report] [--fault SPEC] "
               "[--jobs N | -j N | -jN] [--cache DIR] [--trace FILE] "
               "[--metrics FILE]\n"
               "       anek report [--trace FILE] [--metrics FILE] "
               "[--json] [--top N]\n"
               "       anek faults\n"
               "(--jobs takes 1 to %u threads; --fault list prints the "
               "fault vocabulary)\n",
               ThreadPool::MaxParallelism);
}

/// Parses a count flag's value (--jobs, --top): decimal digits only (no
/// sign, no blanks), 1 <= N <= \p Max. False on anything else.
bool parseCount(const std::string &Count, unsigned Max, unsigned &Out) {
  if (Count.empty() ||
      !std::all_of(Count.begin(), Count.end(),
                   [](unsigned char C) { return std::isdigit(C); }))
    return false;
  // Digits only, so an out-of-range count saturates at ULONG_MAX.
  const unsigned long Value = std::strtoul(Count.c_str(), nullptr, 10);
  if (Value == 0 || Value > Max)
    return false;
  Out = static_cast<unsigned>(Value);
  return true;
}

/// Lists every injectable fault kind with its one-line description.
void printFaultTable() {
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    std::printf("%-16s %s\n", faultKindName(Kind),
                faultKindDescription(Kind));
  }
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

/// `anek report`: profile a finished run from its artifact files.
int runReport(const std::vector<std::string> &Args) {
  std::string TracePath, MetricsPath;
  bool Json = false;
  unsigned TopK = report::DefaultTopK;
  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    if (flagValue(Args, I, "--trace", Value)) {
      TracePath = Value;
    } else if (flagValue(Args, I, "--metrics", Value)) {
      MetricsPath = Value;
    } else if (Args[I] == "--json") {
      Json = true;
    } else if (flagValue(Args, I, "--top", Value)) {
      if (!parseCount(Value, UINT_MAX, TopK)) {
        std::fprintf(stderr, "anek: bad top-k '%s'\n", Value.c_str());
        return ExitUsage;
      }
    } else {
      std::fprintf(stderr, "anek: unknown report argument '%s'\n",
                   Args[I].c_str());
      usage();
      return ExitUsage;
    }
  }
  if (TracePath.empty() && MetricsPath.empty()) {
    std::fprintf(stderr, "anek: report needs --trace, --metrics or both\n");
    usage();
    return ExitUsage;
  }
  Expected<report::Profile> P = report::buildProfile(TracePath, MetricsPath);
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
    if (Arg == "pmd") {
      Out = generatePmdCorpus().Source;
      return true;
    }
    if (Arg == "table3") {
      Out = generateInlineComparison(768, 7).Modular;
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

/// One line per analyzed method: which solver's marginals were used (the
/// cascade's exact exit, else BP) and how the cascade got there.
void printReports(const InferResult &Inference) {
  for (const auto &[M, Report] : Inference.Reports) {
    if (Report.Failed) {
      std::printf("// method %s: FAILED (%s)\n", M->qualifiedName().c_str(),
                  Report.Error.c_str());
      continue;
    }
    std::printf("// method %s: solver=%s%s converged=%s iters=%u "
                "residual=%.2g%s%s\n",
                M->qualifiedName().c_str(),
                Report.Exit == CascadeExit::Exact ? "exact" : "bp",
                Report.Exit != CascadeExit::None ? " (fallback)" : "",
                Report.Solve.Converged ? "yes" : "no",
                Report.Solve.Iterations, Report.Solve.Residual,
                Report.Reason.empty() ? "" : " reason: ",
                Report.Reason.c_str());
  }
}

int run(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty()) {
    usage();
    return ExitUsage;
  }
  std::string Command = Args[0];
  if (Command == "faults") {
    printFaultTable();
    return ExitOk;
  }
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
  // Summary-cache directory (infer/verify); empty = no caching.
  std::string CacheDir;
  std::string MethodFilter;
  TelemetryFlusher Telemetry;
  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    if (flagValue(Args, I, "--trace", Value)) {
      Telemetry.TracePath = Value;
      continue;
    }
    if (flagValue(Args, I, "--metrics", Value)) {
      Telemetry.MetricsPath = Value;
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
      // Accept "-j N", "--jobs N" and the joined "-jN" spelling; only
      // the joined one carries its count in the flag itself.
      const bool Joined = Args[I] != "-j" && Args[I] != "--jobs";
      const std::string Count = Joined ? Args[I].substr(2) : Args[++I];
      if (!parseCount(Count, ThreadPool::MaxParallelism, Jobs)) {
        std::fprintf(stderr,
                     "anek: bad thread count '%s' (want 1 <= N <= %u)\n",
                     Count.c_str(), ThreadPool::MaxParallelism);
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
  telemetry::setCollection(!Telemetry.TracePath.empty(),
                           !Telemetry.MetricsPath.empty());
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
    // --cache DIR: memoize solves in DIR. Caching never changes stdout (a
    // warm run is byte-identical to a cold -j1 run — see DESIGN.md); the
    // accounting goes to stderr below. A cold run reads 0 hits: its
    // repeated states replay from the in-run memo, counted last.
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
                   "%u corrupt, %u store(s); %u pick(s) replayed in-run\n",
                   C.Hits, C.Misses, C.Invalidated, C.Corrupt, C.Stores,
                   Inference.MemoReplays);
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
      if (Inference.FallbackSolves || Inference.MethodsFailed) {
        std::printf(", %u fallback solve(s) (", Inference.FallbackSolves);
        // How each fallback left the cascade; the None slot is always 0.
        for (unsigned E = 1; E != NumCascadeExits; ++E)
          std::printf("%s%u %s", E == 1 ? "" : ", ",
                      Inference.FallbackExits[E],
                      cascadeExitName(static_cast<CascadeExit>(E)));
        std::printf("), %u method(s) failed", Inference.MethodsFailed);
      }
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
    return run(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "anek: internal error: %s\n", E.what());
    return ExitInternal;
  } catch (...) {
    std::fputs("anek: internal error: unknown exception\n", stderr);
    return ExitInternal;
  }
}
