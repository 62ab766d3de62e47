//===- bench_table2_pmd_inference.cpp - Reproduce Table 2 ------------------===//
//
// Paper Table 2: the four PMD configurations.
//   Original     0 annotations, 45 warnings
//   Bierhoff    26 annotations,  3 warnings, 75 min (manual, from [4])
//   Anek        31 annotations,  4 warnings, 3 min 47 s
//   Anek Logical   DNF
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "infer/GlobalInfer.h"
#include "support/Format.h"
#include "support/Timer.h"

using namespace anek;

int main() {
  PmdCorpus Corpus = generatePmdCorpus();
  std::unique_ptr<Program> Prog = mustAnalyze(Corpus.Source);

  std::puts("Table 2: The results of running ANEK on the PMD-scale corpus");
  rule();
  std::printf("%-14s %13s %10s %16s\n", "Method", "Annotations",
              "Warnings", "Time Taken");
  rule();

  // Original: no client annotations at all.
  {
    CheckResult R = runChecker(*Prog, declaredSpecsOnly());
    std::printf("%-14s %13u %10u %16s   (paper: 0 / 45 / 0)\n", "Original",
                0u, R.warningCount(), "0");
  }

  // Bierhoff: the recorded hand annotations. The 75-minute figure is the
  // manual-annotation time reported in [4]; it is a constant of the
  // original study, not something this bench can measure.
  {
    auto Hand = resolveHandSpecs(*Prog, Corpus);
    CheckResult R = runChecker(*Prog, handProvider(Hand));
    std::printf("%-14s %13zu %10u %16s   (paper: 26 / 3 / 75min)\n",
                "Bierhoff", Hand.size(), R.warningCount(),
                "75min [4]");
  }

  // Anek: modular probabilistic inference, then PLURAL.
  {
    Timer T;
    InferResult Inference = runAnekInfer(*Prog);
    double Seconds = T.seconds();
    CheckResult R = runChecker(*Prog, inferredProvider(Inference));
    std::printf("%-14s %13u %10u %15.1fs   (paper: 31 / 4 / 3min47s)\n",
                "Anek", Inference.inferredAnnotationCount(),
                R.warningCount(), Seconds);
  }

  // Anek Logical: deterministic logical-constraints-only solving. The
  // joint system is enumerated exactly; the budget is blown immediately.
  {
    Timer T;
    LogicalResult R = runLogicalInfer(*Prog);
    std::printf("%-14s %13s %10s %15.1fs   (paper: N/A / N/A / DNF)\n",
                "Anek Logical", "N/A", R.Finished ? "?" : "DNF",
                T.seconds());
    if (!R.Finished)
      std::printf("  logical mode gave up: %s\n",
                  R.FailureReason.c_str());
  }
  rule();
  std::puts("Shape check: Original >> Anek ~= Bierhoff; Anek inference is"
            " a small fraction\nof the 75-minute manual effort; the"
            " deterministic configuration does not finish.");
  return 0;
}
