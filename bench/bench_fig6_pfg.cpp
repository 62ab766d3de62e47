//===- bench_fig6_pfg.cpp - Reproduce Figures 6 and 7 ----------------------===//
//
// Paper Figure 6: the Permissions Flow Graph generated for the copy method
// of Figure 5; Figure 7: the field-access PFG. This bench rebuilds both,
// prints their structure, verifies the landmark shapes the figures show,
// and emits GraphViz sources.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/IrBuilder.h"
#include "corpus/ExampleSources.h"
#include "pfg/PfgBuilder.h"

using namespace anek;

static Pfg buildFor(Program &Prog, const std::string &Method) {
  for (MethodDecl *M : Prog.methodsWithBodies())
    if (M->Name == Method) {
      MethodIr Ir = lowerToIr(*M);
      return buildPfg(Ir);
    }
  std::fprintf(stderr, "method %s missing\n", Method.c_str());
  std::exit(1);
}

int main() {
  std::unique_ptr<Program> Prog =
      mustAnalyze(iteratorApiSource() + spreadsheetSource());
  Pfg Copy = buildFor(*Prog, "copy");

  std::puts("Figure 6: the PFG generated for Spreadsheet.copy (Figure 5)");
  rule();
  std::printf("%s\n", Copy.str().c_str());

  // Landmarks of Figure 6.
  unsigned Splits = 0, Merges = 0, Joins = 0, News = 0;
  for (PfgNodeId N = 0; N != Copy.nodeCount(); ++N) {
    switch (Copy.node(N).Kind) {
    case PfgNodeKind::Split:
      ++Splits;
      break;
    case PfgNodeKind::Merge:
      ++Merges;
      break;
    case PfgNodeKind::Join:
      ++Joins;
      break;
    case PfgNodeKind::NewObject:
      ++News;
      break;
    default:
      break;
    }
  }
  std::printf("landmarks: %u splits, %u merges, %u joins (loop + exits), "
              "%u constructor node(s), %zu call sites\n",
              Splits, Merges, Joins, News, Copy.CallSites.size());

  std::puts("");
  std::puts("GraphViz (render with `dot -Tpdf`):");
  std::printf("%s\n", Copy.dot().c_str());

  std::unique_ptr<Program> FieldProg = mustAnalyze(fieldExampleSource());
  Pfg Fields = buildFor(*FieldProg, "accessFields");
  std::puts("Figure 7: field accesses with dotted receiver links");
  rule();
  std::printf("%s\n", Fields.str().c_str());
  std::printf("%s\n", Fields.dot().c_str());
  return 0;
}
