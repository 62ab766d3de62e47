//===- bench_table1_pmd_stats.cpp - Reproduce Table 1 ----------------------===//
//
// Paper Table 1: "Simple statistics for the PMD application."
// Our PMD substitute is the synthetic corpus (see DESIGN.md); this bench
// regenerates it and prints measured statistics next to the paper's.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Format.h"
#include "support/Timer.h"

using namespace anek;

int main() {
  Timer T;
  PmdCorpus Corpus = generatePmdCorpus();
  std::unique_ptr<Program> Prog = mustAnalyze(Corpus.Source);

  // Count parsed entities (ambient synthesized types excluded).
  unsigned Classes = 0, Methods = 0;
  for (const auto &Type : Prog->Types) {
    if (!Type->Loc.isValid())
      continue;
    ++Classes;
    Methods += static_cast<unsigned>(Type->Methods.size());
  }
  // API interface methods (next/hasNext/iterator/add/size/mark) are not
  // counted by the paper's "Number of Methods" (those belong to the
  // library); subtract bodiless methods.
  unsigned Bodiless = 0;
  for (const auto &Type : Prog->Types)
    for (const auto &M : Type->Methods)
      Bodiless += M->Body == nullptr;

  std::puts("Table 1: Simple statistics for the PMD-scale corpus");
  rule();
  std::printf("%-28s %12s %12s\n", "", "paper (PMD)", "measured");
  rule();
  std::printf("%-28s %12s %12u\n", "Lines of Source:", "38,483",
              Corpus.LineCount);
  std::printf("%-28s %12s %12u\n", "Number of Classes:", "463", Classes);
  std::printf("%-28s %12s %12u\n", "Number of Methods:", "3,120",
              Methods - Bodiless);
  std::printf("%-28s %12s %12u\n", "Calls to Iterator.next():", "170",
              Corpus.NextCallCount);
  rule();
  std::printf("generation + frontend: %.2fs (seed %llu)\n", T.seconds(),
              static_cast<unsigned long long>(Corpus.Config.Seed));
  return 0;
}
