//===- bench_ablation_heuristics.cpp - H1-H5 ablation ----------------------===//
//
// Paper Section 3.3/4.2: the heuristic constraints encode what makes a
// good PLURAL spec, and the regression suite guards them. This ablation
// turns each heuristic family off in turn and scores (a) the regression
// suite and (b) PMD warnings after inference.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/RegressionSuite.h"
#include "support/Timer.h"

using namespace anek;

namespace {

struct Score {
  unsigned ExpectationsMet = 0;
  unsigned ExpectationsTotal = 0;
  unsigned SuiteWarningDelta = 0;
  unsigned PmdWarnings = 0;
  unsigned PmdInferred = 0;
};

Score score(const InferOptions &Opts) {
  Score S;
  for (const RegressionCase &Case : regressionSuite()) {
    DiagnosticEngine Diags;
    auto Prog = parseAndAnalyze(Case.Source, Diags);
    if (!Prog)
      continue;
    InferResult R = runAnekInfer(*Prog, Opts);
    for (const RegressionExpectation &E : Case.Expectations) {
      ++S.ExpectationsTotal;
      TypeDecl *T = Prog->findType(E.ClassName);
      MethodDecl *M = nullptr;
      for (auto &MM : T->Methods)
        if (MM->Name == E.MethodName)
          M = MM.get();
      const MethodSpec *Spec = R.specFor(M);
      const std::optional<PermState> *Slot = nullptr;
      if (E.Target == "recv_pre")
        Slot = &Spec->ReceiverPre;
      else if (E.Target == "recv_post")
        Slot = &Spec->ReceiverPost;
      else if (E.Target == "param0_pre")
        Slot = Spec->ParamPre.empty() ? nullptr : &Spec->ParamPre[0];
      else if (E.Target == "param0_post")
        Slot = Spec->ParamPost.empty() ? nullptr : &Spec->ParamPost[0];
      else
        Slot = &Spec->Result;
      if (Slot && Slot->has_value() && (*Slot)->Kind == E.Kind &&
          (*Slot)->State == E.State)
        ++S.ExpectationsMet;
    }
    CheckResult Check = runChecker(*Prog, inferredProvider(R));
    unsigned W = Check.warningCount();
    S.SuiteWarningDelta +=
        W > Case.ExpectedWarnings ? W - Case.ExpectedWarnings
                                  : Case.ExpectedWarnings - W;
  }

  PmdCorpus Corpus = generatePmdCorpus();
  std::unique_ptr<Program> Prog = mustAnalyze(Corpus.Source);
  InferResult R = runAnekInfer(*Prog, Opts);
  S.PmdInferred = R.inferredAnnotationCount();
  S.PmdWarnings = runChecker(*Prog, inferredProvider(R)).warningCount();
  return S;
}

} // namespace

int main() {
  struct Config {
    const char *Name;
    InferOptions Opts;
  };
  std::vector<Config> Configs;
  Configs.push_back({"all heuristics (default)", {}});
  {
    InferOptions O;
    O.Constraints.EnableH1 = false;
    Configs.push_back({"-H1 (ctor unique)", O});
  }
  {
    InferOptions O;
    O.Constraints.EnableH2 = false;
    Configs.push_back({"-H2 (pre=post kind)", O});
  }
  {
    InferOptions O;
    O.Constraints.EnableH3 = false;
    Configs.push_back({"-H3 (create* unique)", O});
  }
  {
    InferOptions O;
    O.Constraints.EnableH4 = false;
    Configs.push_back({"-H4 (set* writes)", O});
  }
  {
    InferOptions O;
    O.Constraints.EnableH5 = false;
    Configs.push_back({"-H5 (sync shared)", O});
  }
  {
    InferOptions O;
    O.Constraints.EnableH6 = false;
    Configs.push_back({"-H6 (weak requires)", O});
  }
  {
    InferOptions O;
    O.Constraints.LogicalOnly = true;
    Configs.push_back({"logical constraints only", O});
  }
  {
    InferOptions O;
    O.Constraints.KindMutex = true;
    Configs.push_back({"+kind mutex factor", O});
  }
  {
    InferOptions O;
    O.Constraints.EnableExclusivity = true;
    Configs.push_back({"+Eq.2 exclusivity factor", O});
  }

  std::puts("Heuristic ablation: regression-suite fidelity and PMD outcome");
  rule();
  std::printf("%-28s %12s %10s %8s %9s %7s\n", "configuration",
              "suite-expect", "warn-delta", "pmd-warn", "pmd-specs",
              "time");
  rule();
  for (const Config &C : Configs) {
    Timer T;
    Score S = score(C.Opts);
    std::printf("%-28s %7u/%-4u %10u %8u %9u %6.1fs\n", C.Name,
                S.ExpectationsMet, S.ExpectationsTotal,
                S.SuiteWarningDelta, S.PmdWarnings, S.PmdInferred,
                T.seconds());
  }
  rule();
  std::puts("Shape check: the default configuration meets every"
            " regression expectation\nand yields the paper's 4 PMD"
            " warnings; ablations lose expectations or add\nwarnings.");
  return 0;
}
