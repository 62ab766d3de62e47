//===- bench_incremental.cpp - Incremental re-inference speedup ------------===//
//
// The summary cache's economics (DESIGN.md, "Incremental inference and
// the summary cache"): after one cold run over a PMD-scale corpus, an
// edit to one method should re-pay only that method's share of the
// fixpoint, not the whole corpus. This bench times four runs against
// one on-disk cache — cold, warm-clean, warm after a 1-method edit,
// warm after a 10%-of-methods edit — and times and byte-checks every
// cached run against an uncached run of the same source.
//
// Exit status is the acceptance gate: nonzero when any cached run's
// output diverges from its uncached reference, or when the 1-method
// warm run costs more than 25% of the uncached run of the same edited
// source. The uncached run, not the cold cached one, is the
// denominator: the cold run also pays the stores, so a cheaper store
// would read as a worse share.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cache/SummaryCache.h"
#include "lang/PrettyPrinter.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

namespace fs = std::filesystem;

/// Everything observable about a run, pointer-free: the annotated
/// program plus the fixpoint's accounting. Cached and uncached runs of
/// the same source must render identically.
std::string renderRun(Program &Prog, const InferResult &R) {
  std::ostringstream Out;
  PrintOptions POpts;
  POpts.SpecFor = [&R](const MethodDecl &M) {
    const MethodSpec *Spec = R.specFor(&M);
    return Spec ? *Spec : MethodSpec();
  };
  Out << printProgram(Prog, POpts);
  Out << "picks=" << R.WorklistPicks << " inferred=" << R.Inferred.size()
      << " failed=" << R.MethodsFailed << " vars=" << R.TotalVariables
      << " factors=" << R.TotalFactors << "\n";
  return Out.str();
}

struct RunPoint {
  const char *Label = "";
  double Seconds = 0.0;
  double UncachedSeconds = 0.0;
  CacheStats Stats;
  bool Identical = true;
};

/// One full inference over a fresh parse of \p Source at -j1 (the
/// determinism reference job count) against \p Cache, then the uncached
/// reference run of the same source.
RunPoint timedRun(const char *Label, const std::string &Source,
                  SolveCache *Cache) {
  std::unique_ptr<Program> Prog = mustAnalyze(Source);
  InferOptions Opts;
  Opts.Parallelism = 1;
  Opts.Cache = Cache;
  Timer T;
  InferResult R = runAnekInfer(*Prog, Opts);
  RunPoint Point;
  Point.Label = Label;
  Point.Seconds = T.seconds();
  Point.Stats = R.Cache;
  // The uncached reference: the byte check and the gate's denominator.
  std::unique_ptr<Program> Ref = mustAnalyze(Source);
  Opts.Cache = nullptr;
  Timer RefTimer;
  InferResult RefR = runAnekInfer(*Ref, Opts);
  Point.UncachedSeconds = RefTimer.seconds();
  Point.Identical = renderRun(*Prog, R) == renderRun(*Ref, RefR);
  return Point;
}

/// Textually edits the bodies of up to \p Count of the generator's bulk
/// `calc<N>` methods (an extra accumulation statement: a real semantic
/// change, not formatting). Returns how many were actually edited.
unsigned dirtyCalcMethods(std::string &Source, unsigned Count,
                          unsigned MaxId) {
  unsigned Dirtied = 0;
  for (unsigned Id = 0; Id != MaxId && Dirtied != Count; ++Id) {
    const std::string Needle =
        formatStr("int calc%u(int a, int b) {\n    int r = a;\n", Id);
    const size_t At = Source.find(Needle);
    if (At == std::string::npos)
      continue;
    Source.insert(At + Needle.size(), "    r = r + 7;\n");
    ++Dirtied;
  }
  return Dirtied;
}

} // namespace

int main() {
  std::puts("Incremental re-inference: one on-disk summary cache across"
            " edits");

  PmdConfig Config;
  Config.Classes = 120;
  Config.Methods = 700;
  Config.Wrappers = 12;
  Config.FullSpecWrappers = 2;
  Config.DirectSites = 90;
  Config.WrapperConsumerSites = 45;
  Config.BuggySites = 2;
  Config.UnannotatedSetters = 3;
  PmdCorpus Corpus = generatePmdCorpus(Config);
  std::printf("corpus: %u classes, %u methods, %u lines\n",
              Corpus.ClassCount, Corpus.MethodCount, Corpus.LineCount);

  const fs::path CacheDir =
      fs::temp_directory_path() /
      ("anek_bench_incremental_" + std::to_string(::getpid()));
  std::error_code Ignored;
  fs::remove_all(CacheDir, Ignored);
  cache::SummaryCache Cache(CacheDir.string());

  std::string OneDirty = Corpus.Source;
  if (dirtyCalcMethods(OneDirty, 1, Config.Methods) != 1) {
    std::fprintf(stderr, "bench: no calc method found to dirty\n");
    return 1;
  }
  std::string TenthDirty = Corpus.Source;
  const unsigned TenthTarget = Corpus.MethodCount / 10;
  const unsigned TenthActual =
      dirtyCalcMethods(TenthDirty, TenthTarget, Config.Methods);
  if (TenthActual == 0) {
    std::fprintf(stderr, "bench: no calc methods found to dirty\n");
    return 1;
  }
  if (TenthActual < TenthTarget)
    std::printf("note: only %u of the targeted %u methods could be"
                " dirtied\n",
                TenthActual, TenthTarget);

  std::vector<RunPoint> Points;
  Points.push_back(timedRun("cold", Corpus.Source, &Cache));
  Points.push_back(timedRun("warm-clean", Corpus.Source, &Cache));
  Points.push_back(timedRun("warm-1-dirty", OneDirty, &Cache));
  Points.push_back(timedRun("warm-10pct-dirty", TenthDirty, &Cache));

  const double ColdSeconds = Points.front().Seconds;
  rule();
  auto Share = [](double Part, double Whole) {
    return Whole > 0.0 ? Part / Whole : 0.0;
  };
  std::printf("%18s | %9s | %7s | %11s | %6s %6s %6s %6s | %s\n", "run",
              "seconds", "of-cold", "of-uncached", "hit", "miss", "inval",
              "store", "identical");
  rule();
  for (const RunPoint &P : Points)
    std::printf("%18s | %8.3fs | %6.1f%% | %10.1f%% | %6u %6u %6u %6u | "
                "%s\n",
                P.Label, P.Seconds, 100.0 * Share(P.Seconds, ColdSeconds),
                100.0 * Share(P.Seconds, P.UncachedSeconds), P.Stats.Hits,
                P.Stats.Misses, P.Stats.Invalidated, P.Stats.Stores,
                P.Identical ? "yes" : "NO (BUG)");
  rule();

  std::ofstream Json("bench_incremental.json");
  Json << "{\n  \"bench\": \"incremental_reinference\",\n"
       << "  \"corpus_methods\": " << Corpus.MethodCount << ",\n"
       << "  \"dirtied_10pct\": " << TenthActual << ",\n"
       << "  \"points\": [\n";
  for (size_t I = 0; I != Points.size(); ++I) {
    const RunPoint &P = Points[I];
    Json << "    {\"run\": \"" << P.Label
         << "\", \"seconds\": " << P.Seconds
         << ", \"uncached_seconds\": " << P.UncachedSeconds
         << ", \"of_cold\": " << Share(P.Seconds, ColdSeconds)
         << ", \"of_uncached\": " << Share(P.Seconds, P.UncachedSeconds)
         << ", \"hits\": " << P.Stats.Hits
         << ", \"misses\": " << P.Stats.Misses
         << ", \"invalidated\": " << P.Stats.Invalidated
         << ", \"stores\": " << P.Stats.Stores << ", \"identical\": "
         << (P.Identical ? "true" : "false") << "}"
         << (I + 1 == Points.size() ? "\n" : ",\n");
  }
  Json << "  ]\n}\n";
  std::puts("Written to bench_incremental.json. Acceptance: every cached"
            " run byte-identical to\nits uncached reference, and the"
            " 1-method-dirty warm run at most 25% of that\nreference.");

  fs::remove_all(CacheDir, Ignored);

  bool Ok = true;
  for (const RunPoint &P : Points)
    Ok = Ok && P.Identical;
  const RunPoint &OneDirtyRun = Points[2];
  if (OneDirtyRun.Seconds > 0.25 * OneDirtyRun.UncachedSeconds) {
    std::fprintf(stderr,
                 "bench: 1-method-dirty run took %.1f%% of its uncached "
                 "run (budget: 25%%)\n",
                 100.0 * Share(OneDirtyRun.Seconds,
                               OneDirtyRun.UncachedSeconds));
    Ok = false;
  }
  return Ok ? 0 : 1;
}
