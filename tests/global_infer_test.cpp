//===- global_infer_test.cpp - Whole-program and logical baselines ---------===//

#include "corpus/ExampleSources.h"
#include "corpus/PmdGenerator.h"
#include "infer/GlobalInfer.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace anek;

namespace {

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

MethodDecl *method(Program &Prog, const std::string &Class,
                   const std::string &Name) {
  for (auto &M : Prog.findType(Class)->Methods)
    if (M->Name == Name)
      return M.get();
  return nullptr;
}

/// Records the tolerance of every BP solve the engine issues and runs it
/// on the local solver, so results stay byte-identical (the delegate
/// contract).
class ToleranceLog final : public BpSolveDelegate {
public:
  Marginals solve(const SumProductSolver::Options &O, const FactorGraph &G,
                  Marginals *GraphLikelihood, SolveReport *Report) override {
    Tolerances.push_back(O.Tolerance);
    return SumProductSolver(O).solve(G, GraphLikelihood, Report);
  }
  std::vector<double> Tolerances;
};

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

} // namespace

TEST(GlobalInferTest, AgreesWithModularOnKeySpecs) {
  // Definition 1: the joint model; at a fixpoint the modular algorithm is
  // meant to match it. Compare the headline spec on the spreadsheet.
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  GlobalResult Global = runGlobalInfer(*Prog);
  InferResult Modular = runAnekInfer(*Prog);

  MethodDecl *Create = method(*Prog, "Row", "createColIter");
  auto GlobalIt = Global.Inferred.find(Create);
  ASSERT_NE(GlobalIt, Global.Inferred.end());
  ASSERT_TRUE(GlobalIt->second.Result.has_value());
  const MethodSpec *ModularSpec = Modular.specFor(Create);
  ASSERT_TRUE(ModularSpec->Result.has_value());
  EXPECT_EQ(GlobalIt->second.Result->Kind, ModularSpec->Result->Kind);
}

TEST(GlobalInferTest, OnlyModularSolvesStopAtNearConvergence) {
  // A modular solve stops at NearConvergence, the finest change its
  // evidence channel can see. The joint solve thresholds raw marginals
  // with no channel in between, so it keeps the solver's default
  // tolerance: stopped at NearConvergence, the spreadsheet's joint solve
  // ends after 37 iterations and loses Row.add's spec.
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  ToleranceLog Bp;
  InferOptions Opts;
  Opts.Bp = &Bp;
  InferResult Modular = runAnekInfer(*Prog, Opts);
  EXPECT_EQ(Bp.Tolerances,
            std::vector<double>(Modular.WorklistPicks - Modular.MemoReplays,
                                NearConvergence));

  Bp.Tolerances.clear();
  GlobalResult Joint = runGlobalInfer(*Prog, Opts);
  EXPECT_EQ(Bp.Tolerances,
            std::vector<double>{SumProductSolver::Options().Tolerance});
  EXPECT_EQ(Joint.Inferred.size(), 3u);
  auto Add = Joint.Inferred.find(method(*Prog, "Row", "add"));
  ASSERT_NE(Add, Joint.Inferred.end());
  ASSERT_TRUE(Add->second.ReceiverPre && Add->second.ReceiverPost);
  EXPECT_EQ(Add->second.ReceiverPre->Kind, PermKind::Unique);
  EXPECT_EQ(Add->second.ReceiverPost->Kind, PermKind::Unique);

  // The joint solve is what the cascade's near-converged exit is for:
  // it misses the finer tolerance, ends within NearConvergence, and its
  // beliefs are accepted after the one BP call.
  const MethodReport &Report = Joint.Report;
  EXPECT_EQ(Report.Exit, CascadeExit::NearConvergedBp);
  EXPECT_FALSE(Report.Solve.Converged);
  EXPECT_LE(Report.Solve.Residual, NearConvergence);
  EXPECT_TRUE(endsWith(Report.Reason, "accepted nearly-converged bp"))
      << Report.Reason;
}

TEST(GlobalInferTest, BuildsOneJointGraph) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  GlobalResult R = runGlobalInfer(*Prog);
  EXPECT_GT(R.TotalVariables, 100u);
  EXPECT_GT(R.TotalFactors, 100u);
  EXPECT_GT(R.SolveSeconds, 0.0);
}

TEST(LogicalInferTest, TinyProgramFinishes) {
  auto Prog = analyze("class A { void m() { } }");
  LogicalResult R = runLogicalInfer(*Prog, /*VarLimit=*/26);
  EXPECT_TRUE(R.Finished) << R.FailureReason;
}

TEST(LogicalInferTest, RealProgramIsDnf) {
  // Even the small spreadsheet blows the deterministic enumeration
  // budget — the paper's "Anek Logical: DNF" row in miniature.
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  LogicalResult R = runLogicalInfer(*Prog, /*VarLimit=*/24);
  EXPECT_FALSE(R.Finished);
  EXPECT_FALSE(R.FailureReason.empty());
  EXPECT_GT(R.Log2SearchSpace, 24.0);
}

TEST(LogicalInferTest, PmdScaleIsHopelesslyDnf) {
  PmdConfig Config;
  // A small slice of the corpus is already far beyond enumeration.
  Config.Classes = 20;
  Config.Methods = 60;
  Config.DirectSites = 5;
  Config.WrapperConsumerSites = 4;
  Config.BuggySites = 1;
  Config.Wrappers = 2;
  Config.FullSpecWrappers = 1;
  PmdCorpus Corpus = generatePmdCorpus(Config);
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Corpus.Source, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  LogicalResult R = runLogicalInfer(*Prog);
  EXPECT_FALSE(R.Finished);
  EXPECT_GT(R.Log2SearchSpace, 1000.0);
}
