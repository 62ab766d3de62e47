//===- infer_test.cpp - End-to-end tests for ANEK-INFER --------------------===//

#include "corpus/ExampleSources.h"
#include "corpus/PmdGenerator.h"
#include "corpus/RegressionSuite.h"
#include "infer/AnekInfer.h"
#include "infer/SummaryIO.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "plural/Checker.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>
#include <sstream>

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
  ADD_FAILURE() << Class << "." << Name << " not found";
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// The paper's running example (Sections 1-2)
//===----------------------------------------------------------------------===//

TEST(AnekInferTest, SpreadsheetConflictStory) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  InferResult R = runAnekInfer(*Prog);

  // createColIter: unique(result) — the H3 heuristic plus the iterator()
  // spec; the HASNEXT evidence from testParseCSV is outweighed by the
  // guarded uses (Section 1).
  const MethodSpec *Spec =
      R.specFor(method(*Prog, "Row", "createColIter"));
  ASSERT_TRUE(Spec->Result.has_value());
  EXPECT_EQ(Spec->Result->Kind, PermKind::Unique);
  EXPECT_TRUE(Spec->Result->State.empty()); // Not HASNEXT.

  // PLURAL then warns exactly at the two unguarded next() calls.
  SpecProvider Specs = [&](const MethodDecl *M) { return R.specFor(M); };
  CheckResult Check = runChecker(*Prog, Specs);
  EXPECT_EQ(Check.warningCount(), 2u);
  for (const CheckWarning &W : Check.Warnings) {
    EXPECT_EQ(W.InMethod->Name, "testParseCSV");
    EXPECT_NE(W.Message.find("HASNEXT"), std::string::npos);
  }
}

TEST(AnekInferTest, DeclaredSpecsAreRespected) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  InferResult R = runAnekInfer(*Prog);
  MethodDecl *Next = method(*Prog, "Iterator", "next");
  const MethodSpec *Spec = R.specFor(Next);
  EXPECT_EQ(Spec, &Next->DeclaredSpec);
  EXPECT_EQ(R.Inferred.count(Next), 0u);
}

TEST(AnekInferTest, StatisticsPopulated) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  InferResult R = runAnekInfer(*Prog);
  EXPECT_GT(R.WorklistPicks, 0u);
  EXPECT_GT(R.MethodsAnalyzed, 0u);
  EXPECT_GT(R.TotalVariables, 0u);
  EXPECT_GT(R.TotalFactors, 0u);
  EXPECT_GT(R.inferredAnnotationCount(), 0u);
}

TEST(AnekInferTest, MaxItersBoundsWork) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  InferOptions Opts;
  Opts.MaxIters = 3;
  InferResult R = runAnekInfer(*Prog, Opts);
  EXPECT_LE(R.WorklistPicks, 3u);
}

TEST(AnekInferTest, FileProtocolInference) {
  auto Prog = analyze(fileProtocolSource());
  InferResult R = runAnekInfer(*Prog);
  // createLog wraps the File constructor: unique(result) in OPEN.
  const MethodSpec *Spec =
      R.specFor(method(*Prog, "FileClient", "createLog"));
  ASSERT_TRUE(Spec->Result.has_value());
  EXPECT_EQ(Spec->Result->Kind, PermKind::Unique);
  EXPECT_EQ(Spec->Result->State, "OPEN");
}

//===----------------------------------------------------------------------===//
// The fallback cascade
//===----------------------------------------------------------------------===//

namespace {

/// Counts the BP solves the engine issues and runs each on the local
/// solver, so results stay byte-identical (the delegate contract).
class CountingBp final : public BpSolveDelegate {
public:
  Marginals solve(const SumProductSolver::Options &O, const FactorGraph &G,
                  Marginals *GraphLikelihood, SolveReport *Report) override {
    ++Calls;
    return SumProductSolver(O).solve(G, GraphLikelihood, Report);
  }
  unsigned Calls = 0;
};

} // namespace

TEST(CascadeTest, ModularSolveConvergesInOneBpCall) {
  // A modular solve stops at NearConvergence, the finest change its
  // evidence can see, and every fresh solve of the file example gets
  // there: each costs one BP call and none leaves the cascade.
  auto Prog = analyze(fileProtocolSource());
  CountingBp Bp;
  InferOptions Opts;
  Opts.Bp = &Bp;
  InferResult R = runAnekInfer(*Prog, Opts);
  const unsigned FreshSolves = R.WorklistPicks - R.MemoReplays;
  EXPECT_EQ(FreshSolves, 11u);
  EXPECT_EQ(Bp.Calls, FreshSolves);
  EXPECT_EQ(R.FallbackSolves, 0u);
  ASSERT_FALSE(R.Reports.empty());
  for (const auto &[M, Report] : R.Reports) {
    EXPECT_EQ(Report.Exit, CascadeExit::None) << M->qualifiedName();
    EXPECT_TRUE(Report.Solve.Converged) << M->qualifiedName();
    EXPECT_LE(Report.Solve.Residual, NearConvergence) << M->qualifiedName();
    EXPECT_TRUE(Report.Reason.empty())
        << M->qualifiedName() << ": " << Report.Reason;
  }
}

TEST(CascadeTest, InjectedNonConvergenceLeavesBpAfterOneCall) {
  // The fault models bad divergence, so the near-converged accept is
  // skipped and the cascade moves on after the one BP call. The fault
  // also disarms the memo, so every pick solves.
  faults::reset();
  auto Prog = analyze(fileProtocolSource());
  faults::ScopedFault Fault(FaultKind::BpNonConvergence);
  CountingBp Bp;
  InferOptions Opts;
  Opts.Bp = &Bp;
  InferResult R = runAnekInfer(*Prog, Opts);
  EXPECT_EQ(R.MemoReplays, 0u);
  EXPECT_EQ(Bp.Calls, R.WorklistPicks);
  EXPECT_EQ(R.FallbackSolves, R.WorklistPicks);
  EXPECT_EQ(R.FallbackExits[unsigned(CascadeExit::NearConvergedBp)], 0u);
  ASSERT_FALSE(R.Reports.empty());
  for (const auto &[M, Report] : R.Reports)
    EXPECT_NE(Report.Exit, CascadeExit::None) << M->qualifiedName();
}

TEST(AnekInferTest, DeterministicAcrossRuns) {
  auto Prog1 = analyze(iteratorApiSource() + spreadsheetSource());
  auto Prog2 = analyze(iteratorApiSource() + spreadsheetSource());
  InferResult R1 = runAnekInfer(*Prog1);
  InferResult R2 = runAnekInfer(*Prog2);
  // Same methods (by qualified name) get the same specs; the maps are
  // pointer-keyed, so compare through name-keyed views.
  auto ByName = [](const MethodDeclMap<MethodSpec> &In) {
    std::map<std::string, MethodSpec> Out;
    for (auto &[M, S] : In)
      Out.emplace(M->qualifiedName(), S);
    return Out;
  };
  EXPECT_EQ(ByName(MethodDeclMap<MethodSpec>(
                R1.Inferred.begin(), R1.Inferred.end())),
            ByName(MethodDeclMap<MethodSpec>(
                R2.Inferred.begin(), R2.Inferred.end())));
}

TEST(AnekInferDeathTest, RequiresUniqueDeclarationIndices) {
  // The engine names methods by declaration index everywhere — memo and
  // cache records alike — so a program Sema did not number is a caller
  // bug the engine refuses, not a mode it degrades into.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto Prog = analyze(fileProtocolSource());
  auto &Methods = Prog->Types.front()->Methods;
  ASSERT_GE(Methods.size(), 2u);
  Methods[1]->DeclIndex = Methods[0]->DeclIndex;
  EXPECT_DEATH(runAnekInfer(*Prog), "declaration indices must be unique");
}

//===----------------------------------------------------------------------===//
// The paper's regression suite (Section 4.2), parameterized
//===----------------------------------------------------------------------===//

class RegressionSuiteTest : public testing::TestWithParam<size_t> {};

TEST_P(RegressionSuiteTest, InferenceMatchesExpectations) {
  const RegressionCase &Case = regressionSuite()[GetParam()];
  SCOPED_TRACE(Case.Name + " (" + Case.Feature + ")");

  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Case.Source, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  InferResult R = runAnekInfer(*Prog);

  for (const RegressionExpectation &E : Case.Expectations) {
    SCOPED_TRACE(E.ClassName + "." + E.MethodName + " " + E.Target);
    MethodDecl *M = method(*Prog, E.ClassName, E.MethodName);
    const MethodSpec *Spec = R.specFor(M);
    const std::optional<PermState> *Slot = nullptr;
    if (E.Target == "recv_pre")
      Slot = &Spec->ReceiverPre;
    else if (E.Target == "recv_post")
      Slot = &Spec->ReceiverPost;
    else if (E.Target == "param0_pre")
      Slot = &Spec->ParamPre[0];
    else if (E.Target == "param0_post")
      Slot = &Spec->ParamPost[0];
    else
      Slot = &Spec->Result;
    ASSERT_TRUE(Slot->has_value());
    EXPECT_EQ((*Slot)->Kind, E.Kind);
    EXPECT_EQ((*Slot)->State, E.State);
  }

  SpecProvider Specs = [&](const MethodDecl *M) { return R.specFor(M); };
  CheckResult Check = runChecker(*Prog, Specs);
  EXPECT_EQ(Check.warningCount(), Case.ExpectedWarnings);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, RegressionSuiteTest,
    testing::Range<size_t>(0, regressionSuite().size()),
    [](const testing::TestParamInfo<size_t> &Info) {
      std::string Name = regressionSuite()[Info.param].Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// The in-run SOLVE memo
//===----------------------------------------------------------------------===//

namespace {

/// Everything a run computes apart from wall-clock: the program rendered
/// with its specs, the final summaries' snapshot bytes, and every
/// per-method report.
struct RunImage {
  std::string Specs;
  std::string Snapshot;
  std::string Reports;
  InferResult Result;
};

RunImage runImage(const std::string &Source, const InferOptions &Opts) {
  RunImage Image;
  auto Prog = analyze(Source);
  if (!Prog)
    return Image;
  Image.Result = runAnekInfer(*Prog, Opts);
  const InferResult &R = Image.Result;
  PrintOptions POpts;
  POpts.SpecFor = [&R](const MethodDecl &M) { return *R.specFor(&M); };
  Image.Specs = printProgram(*Prog, POpts);
  Image.Snapshot = summaryio::encodeSnapshot(R.Summaries);
  std::ostringstream Out;
  Out << std::hexfloat;
  for (const auto &[M, Rep] : R.Reports)
    Out << M->qualifiedName() << " exit=" << cascadeExitName(Rep.Exit)
        << " reason=" << Rep.Reason
        << " converged=" << Rep.Solve.Converged
        << " residual=" << Rep.Solve.Residual
        << " iters=" << Rep.Solve.Iterations
        << " updates=" << Rep.Solve.Updates
        << " skipped=" << Rep.Solve.SkippedUpdates
        << " why=" << Rep.Solve.Reason << " solves=" << Rep.Solves
        << " failed=" << Rep.Failed << " error=" << Rep.Error << "\n";
  Out << "picks=" << R.WorklistPicks << " fallbacks=" << R.FallbackSolves
      << " failed=" << R.MethodsFailed << " vars=" << R.TotalVariables
      << " factors=" << R.TotalFactors << "\n";
  Image.Reports = Out.str();
  return Image;
}

/// A scaled-down PMD corpus: the iterator core that cycles at full size,
/// small enough for a unit test.
std::string reducedPmdSource() {
  PmdConfig Config;
  Config.Classes = 22;
  Config.Methods = 90;
  Config.Wrappers = 3;
  Config.DirectSites = 6;
  Config.WrapperConsumerSites = 4;
  return generatePmdCorpus(Config).Source;
}

} // namespace

TEST(SolveMemoTest, ReplaysChangeNothingButTheWork) {
  faults::reset();
  for (const std::string &Source :
       {iteratorApiSource() + spreadsheetSource(), reducedPmdSource()}) {
    RunImage WithMemo = runImage(Source, InferOptions());
    // The replay-free baseline: an armed solve-fail fault disarms the
    // memo whatever its filter, and this filter names no method, so no
    // solve fails and every pick solves afresh.
    RunImage WithoutMemo;
    {
      faults::ScopedFault Gate(FaultKind::SolveFailure, "No.such.method");
      WithoutMemo = runImage(Source, InferOptions());
    }

    EXPECT_GT(WithMemo.Result.MemoReplays, 0u);
    EXPECT_EQ(WithoutMemo.Result.MethodsFailed, 0u);
    EXPECT_EQ(WithoutMemo.Result.MemoReplays, 0u);
    EXPECT_LT(WithMemo.Result.MemoReplays, WithMemo.Result.WorklistPicks);
    EXPECT_EQ(WithMemo.Specs, WithoutMemo.Specs);
    EXPECT_EQ(WithMemo.Snapshot, WithoutMemo.Snapshot);
    EXPECT_EQ(WithMemo.Reports, WithoutMemo.Reports);

    // Threads do not change which picks replay.
    InferOptions Parallel;
    Parallel.Parallelism = 4;
    RunImage Wide = runImage(Source, Parallel);
    EXPECT_EQ(Wide.Result.MemoReplays, WithMemo.Result.MemoReplays);
    EXPECT_EQ(Wide.Reports, WithMemo.Reports);
    EXPECT_EQ(Wide.Snapshot, WithMemo.Snapshot);
  }
}

TEST(SolveMemoTest, DisarmedUnderAnalysisPerturbingFault) {
  // A run whose solves may be sabotaged must not replay them: the memo
  // follows the summary cache's preconditions.
  faults::reset();
  faults::ScopedFault Sabotage(FaultKind::SolveFailure, "Row.createColIter");
  InferResult R =
      runImage(iteratorApiSource() + spreadsheetSource(), InferOptions())
          .Result;
  EXPECT_EQ(R.MethodsFailed, 1u);
  EXPECT_EQ(R.MemoReplays, 0u);
}

