//===- bench_table4_spec_quality.cpp - Reproduce Table 4 -------------------===//
//
// Paper Table 4: classification of ANEK's inferred annotations against the
// hand-written ones: 14 Same / 6 Added Helpful / 1 Added Constraining /
// 3 Removed / 6 More Restrictive / 3 Wrong.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/SpecComparison.h"

using namespace anek;

int main() {
  PmdCorpus Corpus = generatePmdCorpus();
  std::unique_ptr<Program> Prog = mustAnalyze(Corpus.Source);
  auto Hand = resolveHandSpecs(*Prog, Corpus);
  InferResult Inference = runAnekInfer(*Prog);
  MethodDeclMap<MethodSpec> Inferred(
      Inference.Inferred.begin(), Inference.Inferred.end());

  SpecComparisonTable Table = compareSpecs(Hand, Inferred);

  std::puts("Table 4: Comparison of by-hand annotations with Anek");
  rule();
  std::printf("%-40s %8s %8s\n", "Description", "paper", "measured");
  rule();
  struct Row {
    SpecCategory Category;
    unsigned Paper;
  } Rows[] = {
      {SpecCategory::Same, 14},
      {SpecCategory::AddedHelpful, 6},
      {SpecCategory::AddedConstraining, 1},
      {SpecCategory::Removed, 3},
      {SpecCategory::MoreRestrictive, 6},
      {SpecCategory::Wrong, 3},
  };
  for (const Row &R : Rows)
    std::printf("%-40s %8u %8u\n", specCategoryName(R.Category), R.Paper,
                Table.count(R.Category));
  rule();
  std::puts("Details of every non-identical classification:");
  for (const SpecComparison &Item : Table.Items) {
    if (Item.Category == SpecCategory::Same)
      continue;
    std::printf("  %-32s %-38s %s\n",
                Item.Method->qualifiedName().c_str(),
                specCategoryName(Item.Category), Item.Detail.c_str());
  }
  return 0;
}
