//===- bench_ablation_maxiters.cpp - Accuracy/scalability knob -------------===//
//
// Paper Section 1/3.4: "Varying the number of iterations allows for a
// trade-off between specification accuracy and scalability." This bench
// sweeps MaxIters on the PMD corpus and reports time, inferred
// annotations, and the PLURAL warning count after inference.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Timer.h"

using namespace anek;

int main() {
  PmdCorpus Corpus = generatePmdCorpus();
  std::unique_ptr<Program> Prog = mustAnalyze(Corpus.Source);
  const unsigned Bodies =
      static_cast<unsigned>(Prog->methodsWithBodies().size());

  std::puts("MaxIters sweep on the PMD-scale corpus (paper Section 3.4)");
  rule();
  std::printf("%12s %10s %10s %10s %8s\n", "MaxIters", "picks",
              "inferred", "warnings", "time");
  rule();

  const unsigned Sweeps[] = {Bodies / 8, Bodies / 4, Bodies / 2, Bodies,
                             2 * Bodies, 3 * Bodies};
  for (unsigned MaxIters : Sweeps) {
    InferOptions Opts;
    Opts.MaxIters = MaxIters;
    Timer T;
    InferResult R = runAnekInfer(*Prog, Opts);
    CheckResult Check = runChecker(*Prog, inferredProvider(R));
    std::printf("%12u %10u %10u %10u %7.2fs\n", MaxIters, R.WorklistPicks,
                R.inferredAnnotationCount(), Check.warningCount(),
                T.seconds());
  }
  rule();
  std::puts("Shape check: warnings fall toward the 4-warning fixpoint as"
            " iterations grow;\ntime grows roughly linearly in the pick"
            " budget.");
  return 0;
}
