//===- bench_fig9_convergence.cpp - ANEK-INFER convergence (Figure 9) ------===//
//
// Paper Figure 9 presents ANEK-INFER, which runs MaxIters worklist picks
// instead of reaching a fixpoint, and notes that the fixpoint result
// coincides with solving the joint model (Definition 1). This bench
// traces how the headline summary converges with iterations and compares
// the converged modular answer against the global joint solve.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/ExampleSources.h"
#include "infer/GlobalInfer.h"
#include "support/Timer.h"

using namespace anek;

static std::string specOf(const MethodDeclMap<MethodSpec> &M,
                          const MethodDecl *Method) {
  auto It = M.find(Method);
  if (It == M.end())
    return "(none)";
  std::string Requires =
      printSpecSide(It->second, true, Method->paramNames());
  std::string Ensures =
      printSpecSide(It->second, false, Method->paramNames());
  return "requires \"" + Requires + "\" ensures \"" + Ensures + "\"";
}

int main() {
  std::puts("Figure 9: ANEK-INFER worklist convergence on the spreadsheet");
  rule();
  std::printf("%9s %12s %8s  %s\n", "MaxIters", "picks", "time",
              "inferred spec of Row.createColIter");
  rule();

  for (unsigned MaxIters : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    std::unique_ptr<Program> Prog =
        mustAnalyze(iteratorApiSource() + spreadsheetSource());
    MethodDecl *Create = nullptr;
    for (MethodDecl *M : Prog->methodsWithBodies())
      if (M->Name == "createColIter")
        Create = M;

    InferOptions Opts;
    Opts.MaxIters = MaxIters;
    Timer T;
    InferResult R = runAnekInfer(*Prog, Opts);
    MethodDeclMap<MethodSpec> Inferred(R.Inferred.begin(),
                                                      R.Inferred.end());
    std::printf("%9u %12u %7.3fs  %s\n", MaxIters, R.WorklistPicks,
                T.seconds(), specOf(Inferred, Create).c_str());
  }

  rule();
  std::puts("joint (Definition 1) solve of the same program:");
  {
    std::unique_ptr<Program> Prog =
        mustAnalyze(iteratorApiSource() + spreadsheetSource());
    MethodDecl *Create = nullptr;
    for (MethodDecl *M : Prog->methodsWithBodies())
      if (M->Name == "createColIter")
        Create = M;
    Timer T;
    GlobalResult G = runGlobalInfer(*Prog);
    std::printf("%9s %12s %7.3fs  %s\n", "global", "-", T.seconds(),
                specOf(G.Inferred, Create).c_str());
  }
  rule();
  std::puts("Shape check: the modular result stabilizes after a few"
            " passes and matches\nthe unique(result) answer of the joint"
            " model (Section 3.4).");
  return 0;
}
