//===- bench_scalability.cpp - Modular vs global scalability ---------------===//
//
// Paper Sections 1/3.4: the modular algorithm exists because whole-program
// inference "lacks scalability, since the entire program must be analyzed
// at once." This bench sweeps corpus size and times ANEK-INFER (one pass)
// against the joint Definition 1 solve.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "infer/GlobalInfer.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <fstream>
#include <sstream>
#include <vector>

using namespace anek;

namespace {

/// Fingerprint of an inference result: inferred spec count plus every
/// spec rendered in declaration order. Two runs with equal fingerprints
/// produced the same specs.
std::string fingerprint(const InferResult &R) {
  std::ostringstream Out;
  for (const auto &[M, Spec] : R.Inferred) {
    std::vector<std::string> Params = M->paramNames();
    Out << M->qualifiedName() << "{"
        << printSpecSide(Spec, /*IsRequires=*/true, Params) << "|"
        << printSpecSide(Spec, /*IsRequires=*/false, Params) << "};";
  }
  return Out.str();
}

} // namespace

int main() {
  std::puts("Scalability: modular ANEK-INFER vs joint (Definition 1) solve");
  rule();
  std::printf("%8s %8s %9s | %10s %10s | %12s %10s\n", "classes",
              "methods", "lines", "modular", "warnings", "joint-vars",
              "joint");
  rule();

  for (unsigned Scale : {1u, 2u, 4u, 8u, 16u}) {
    PmdConfig Config;
    Config.Classes = 10 + 12 * Scale;
    Config.Methods = 30 + 60 * Scale;
    Config.Wrappers = 2 + Scale;
    Config.FullSpecWrappers = 1;
    Config.DirectSites = 4 * Scale;
    Config.WrapperConsumerSites = 3 * Scale;
    Config.BuggySites = 1;
    Config.UnannotatedSetters = 2;
    PmdCorpus Corpus = generatePmdCorpus(Config);
    std::unique_ptr<Program> Prog = mustAnalyze(Corpus.Source);

    // One worklist pass per method: the per-pass cost that must scale.
    InferOptions Opts;
    Opts.MaxIters =
        static_cast<unsigned>(Prog->methodsWithBodies().size());
    Timer ModularTimer;
    InferResult Modular = runAnekInfer(*Prog, Opts);
    double ModularSeconds = ModularTimer.seconds();
    CheckResult Check = runChecker(*Prog, inferredProvider(Modular));

    Timer GlobalTimer;
    GlobalResult Global = runGlobalInfer(*Prog);
    double GlobalSeconds = GlobalTimer.seconds();

    std::printf("%8u %8u %9u | %9.3fs %10u | %12u %9.3fs\n",
                Corpus.ClassCount, Corpus.MethodCount, Corpus.LineCount,
                ModularSeconds, Check.warningCount(),
                Global.TotalVariables, GlobalSeconds);
  }
  rule();
  std::puts("Shape check: modular time grows roughly linearly with"
            " program size, while the\njoint graph's size (and solve"
            " cost) grows with the whole program at once —\nand the"
            " deterministic variant of the joint solve is already DNF"
            " (Table 2).");

  // Thread-count sweep: the same inference on 1..N workers. The wave
  // scheduler guarantees identical specs at every job count (checked
  // via fingerprints); the interesting number is the wall-clock
  // speedup, recorded to bench_scalability.json for tracking.
  std::puts("");
  std::printf("Parallel sweep (hardware threads: %u)\n",
              ThreadPool::defaultParallelism());
  rule();
  std::printf("%8s | %10s | %8s | %s\n", "jobs", "seconds", "speedup",
              "specs match -j1");
  rule();

  PmdConfig SweepConfig;
  SweepConfig.Classes = 58;
  SweepConfig.Methods = 270;
  SweepConfig.Wrappers = 6;
  SweepConfig.FullSpecWrappers = 2;
  SweepConfig.DirectSites = 16;
  SweepConfig.WrapperConsumerSites = 12;
  PmdCorpus SweepCorpus = generatePmdCorpus(SweepConfig);

  struct SweepPoint {
    unsigned Jobs = 0;
    double Seconds = 0.0;
    double Speedup = 1.0;
    bool Identical = true;
  };
  std::vector<SweepPoint> Sweep;
  std::string Baseline;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    // Fresh parse per point: runs must not share warmed-up state.
    std::unique_ptr<Program> Prog = mustAnalyze(SweepCorpus.Source);
    InferOptions Opts;
    Opts.Parallelism = Jobs;
    Timer T;
    InferResult R = runAnekInfer(*Prog, Opts);
    SweepPoint Point;
    Point.Jobs = Jobs;
    Point.Seconds = T.seconds();
    std::string Print = fingerprint(R);
    if (Jobs == 1)
      Baseline = Print;
    Point.Identical = Print == Baseline;
    Point.Speedup = Point.Seconds > 0.0 && !Sweep.empty()
                        ? Sweep.front().Seconds / Point.Seconds
                        : 1.0;
    std::printf("%8u | %9.3fs | %7.2fx | %s\n", Point.Jobs, Point.Seconds,
                Point.Speedup, Point.Identical ? "yes" : "NO (BUG)");
    Sweep.push_back(Point);
  }
  rule();

  std::ofstream Json("bench_scalability.json");
  Json << "{\n  \"bench\": \"scalability_thread_sweep\",\n"
       << "  \"hardware_threads\": " << ThreadPool::defaultParallelism()
       << ",\n  \"corpus_methods\": " << SweepCorpus.MethodCount
       << ",\n  \"points\": [\n";
  for (size_t I = 0; I != Sweep.size(); ++I)
    Json << "    {\"jobs\": " << Sweep[I].Jobs
         << ", \"seconds\": " << Sweep[I].Seconds
         << ", \"speedup\": " << Sweep[I].Speedup
         << ", \"identical\": " << (Sweep[I].Identical ? "true" : "false")
         << "}" << (I + 1 == Sweep.size() ? "\n" : ",\n");
  Json << "  ]\n}\n";
  std::puts("Sweep written to bench_scalability.json; speedup is"
            " meaningful only when the\nmachine has that many hardware"
            " threads, identity must hold everywhere.");

  bool AllIdentical = true;
  for (const SweepPoint &Point : Sweep)
    AllIdentical = AllIdentical && Point.Identical;
  return AllIdentical ? 0 : 1;
}
