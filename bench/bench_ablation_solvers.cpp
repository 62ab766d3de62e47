//===- bench_ablation_solvers.cpp - Solver microbenchmarks -----------------===//
//
// Paper Section 3.4 solves the probabilistic model with "an off-the-shelf
// machine learning algorithm" (INFER.NET); we hand-rolled two. This
// google-benchmark binary measures sum-product BP on a representative
// per-method factor graph (the spreadsheet copy method), BP against
// exact enumeration on a small loopy graph, and end-to-end inference
// (BP with the exact fallback).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/IrBuilder.h"
#include "constraints/ConstraintGen.h"
#include "corpus/ExampleSources.h"
#include "factor/Solvers.h"
#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"

#include <benchmark/benchmark.h>

using namespace anek;

namespace {

/// Builds the copy method's constraint graph once.
const FactorGraph &copyGraph() {
  static FactorGraph *G = [] {
    DiagnosticEngine Diags;
    static std::unique_ptr<Program> Prog =
        parseAndAnalyze(iteratorApiSource() + spreadsheetSource(), Diags);
    static MethodIr Ir = [] {
      for (MethodDecl *M : Prog->methodsWithBodies())
        if (M->Name == "copy")
          return lowerToIr(*M);
      std::abort();
    }();
    static Pfg P = buildPfg(Ir);
    auto *FG = new FactorGraph();
    static PfgVarMap Vars(P, *FG);
    generateConstraints(P, *FG, Vars);
    return FG;
  }();
  return *G;
}

/// A small graph exact enumeration can handle.
FactorGraph smallGraph() {
  FactorGraph G;
  std::vector<VarId> Vars;
  for (int I = 0; I != 14; ++I)
    Vars.push_back(G.addVariable(0.3 + 0.03 * I));
  for (int I = 0; I + 1 < 14; ++I)
    G.addEqualityFactor(Vars[I], Vars[I + 1], 0.9);
  G.addEqualityFactor(Vars[0], Vars[13], 0.85); // Close a loop.
  return G;
}

void BM_SumProductCopyMethod(benchmark::State &State) {
  const FactorGraph &G = copyGraph();
  for (auto _ : State) {
    Marginals M = SumProductSolver().solve(G);
    benchmark::DoNotOptimize(M);
  }
  State.counters["vars"] = G.variableCount();
  State.counters["factors"] = G.factorCount();
}
BENCHMARK(BM_SumProductCopyMethod);

void BM_SumProductSmall(benchmark::State &State) {
  FactorGraph G = smallGraph();
  for (auto _ : State) {
    Marginals M = SumProductSolver().solve(G);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_SumProductSmall);

void BM_ExactSmall(benchmark::State &State) {
  FactorGraph G = smallGraph();
  for (auto _ : State) {
    Marginals M = *ExactSolver().solve(G);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_ExactSmall);

void BM_EndToEndInference(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    DiagnosticEngine Diags;
    auto Prog =
        parseAndAnalyze(iteratorApiSource() + spreadsheetSource(), Diags);
    State.ResumeTiming();
    InferResult R = runAnekInfer(*Prog);
    benchmark::DoNotOptimize(R.Inferred.size());
  }
}
BENCHMARK(BM_EndToEndInference);

} // namespace

BENCHMARK_MAIN();
