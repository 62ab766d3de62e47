//===- robustness_test.cpp - Fault tolerance and degradation ---------------===//
//
// The failure-model suite (DESIGN.md, "Failure model and degradation"):
// malformed inputs must produce diagnostics (never aborts), solver budgets
// must expire cleanly, the fallback cascade must engage when belief
// propagation misses its convergence contract, and one poisoned method
// must never take whole-program inference down.
//
//===----------------------------------------------------------------------===//

#include "corpus/ExampleSources.h"
#include "factor/Solvers.h"
#include "infer/AnekInfer.h"
#include "infer/GlobalInfer.h"
#include "lang/Sema.h"
#include "shard/Wire.h"
#include "support/Deadline.h"
#include "support/FaultInject.h"
#include "support/Rational.h"
#include "support/Status.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <pthread.h>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

namespace fs = std::filesystem;

/// Every .mjava file in the malformed-input corpus.
std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(ANEK_CORPUS_DIR))
    if (Entry.path().extension() == ".mjava")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Runs the real `anek` binary; returns its exit code (-1 on signal /
/// abnormal termination) and captures combined stdout+stderr.
int runTool(const std::string &ArgLine, std::string *Output = nullptr) {
  fs::path Capture =
      fs::temp_directory_path() /
      ("anek_robustness_" + std::to_string(::getpid()) + ".out");
  std::string Cmd = std::string(ANEK_TOOL_PATH) + " " + ArgLine + " > " +
                    Capture.string() + " 2>&1";
  int RawStatus = std::system(Cmd.c_str());
  if (Output) {
    std::ifstream In(Capture);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    *Output = Buffer.str();
  }
  std::error_code Ignored;
  fs::remove(Capture, Ignored);
  if (RawStatus == -1 || !WIFEXITED(RawStatus))
    return -1; // Crashed or was signalled: never acceptable.
  return WEXITSTATUS(RawStatus);
}

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

/// A small loopy graph belief propagation genuinely struggles with: an
/// asymmetric frustrated cycle of near-hard disagreement constraints.
FactorGraph frustratedCycle() {
  FactorGraph G;
  VarId A = G.addVariable(0.9, "a");
  VarId B = G.addVariable(0.5, "b");
  VarId C = G.addVariable(0.3, "c");
  auto Disagree = [](const std::vector<bool> &X) { return X[0] != X[1]; };
  G.addPredicateFactor({A, B}, Disagree, 0.99);
  G.addPredicateFactor({B, C}, Disagree, 0.99);
  G.addPredicateFactor({C, A}, Disagree, 0.99);
  return G;
}

class RobustnessTest : public testing::Test {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

//===----------------------------------------------------------------------===//
// Malformed-input corpus: diagnostics, never crashes
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, CorpusIsNonTrivial) {
  EXPECT_GE(corpusFiles().size(), 5u);
}

TEST_F(RobustnessTest, MalformedCorpusNeverCrashesTheDriver) {
  // The driver contract: malformed input exits 1 with at least one
  // diagnostic. Exit -1 (signal), 134 (abort), 139 (segfault) all fail.
  for (const fs::path &File : corpusFiles()) {
    std::string Output;
    int Exit = runTool("infer " + File.string(), &Output);
    EXPECT_EQ(Exit, 1) << File.filename() << " output:\n" << Output;
    EXPECT_FALSE(Output.empty())
        << File.filename() << " produced no diagnostics";
  }
}

TEST_F(RobustnessTest, MalformedCorpusProducesErrorsInProcess) {
  for (const fs::path &File : corpusFiles()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Program> Prog = parseAndAnalyze(readFile(File), Diags);
    EXPECT_TRUE(!Prog || Diags.hasErrors())
        << File.filename() << " parsed cleanly";
    EXPECT_TRUE(Diags.hasErrors()) << File.filename() << ": " << Diags.str();
  }
}

TEST_F(RobustnessTest, DriverExitCodeContract) {
  EXPECT_EQ(runTool(""), 2);                     // No command.
  EXPECT_EQ(runTool("bogus-command x.mjava"), 2); // Unknown command.
  EXPECT_EQ(runTool("infer --frobnicate x"), 2);  // Unknown flag.
  // Removed surface is a usage error, never silently ignored.
  EXPECT_EQ(runTool("workerd --listen 127.0.0.1:0"), 2);
  EXPECT_EQ(runTool("infer --example file --workers 127.0.0.1:1"), 2);
  EXPECT_EQ(runTool("infer /no/such/file.mjava"), 1);
  EXPECT_EQ(runTool("infer --example file"), 0);
}

TEST_F(RobustnessTest, DriverReportsFaultInjection) {
  std::string Output;
  int Exit = runTool(
      "infer --example spreadsheet --report --fault bp-nonconverge",
      &Output);
  EXPECT_EQ(Exit, 0) << Output;
  EXPECT_NE(Output.find("(fallback)"), std::string::npos) << Output;
  EXPECT_EQ(runTool("infer --example file --fault no-such-fault"), 2);
}

//===----------------------------------------------------------------------===//
// Solver budgets and convergence reports
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, BpReportsNonConvergenceWithinBudget) {
  FactorGraph G = frustratedCycle();
  SumProductSolver::Options Opts;
  Opts.MaxIterations = 4;
  Opts.Tolerance = 1e-12;
  SolveReport Report;
  Marginals M = SumProductSolver(Opts).solve(G, nullptr, &Report);
  ASSERT_EQ(M.size(), 3u);
  EXPECT_FALSE(Report.Converged);
  EXPECT_GT(Report.Residual, Opts.Tolerance);
  EXPECT_EQ(Report.Iterations, 4u);
}

TEST_F(RobustnessTest, BpHonorsWallClockDeadline) {
  FactorGraph G = frustratedCycle();
  SumProductSolver::Options Opts;
  Opts.Budget = Deadline::afterSeconds(0.0);
  SolveReport Report;
  Marginals M = SumProductSolver(Opts).solve(G, nullptr, &Report);
  ASSERT_EQ(M.size(), 3u); // Degraded beliefs, not a crash.
  EXPECT_TRUE(Report.DeadlineExpired);
  EXPECT_FALSE(Report.Converged);
  EXPECT_EQ(Report.Iterations, 0u);
}

TEST_F(RobustnessTest, DeadlineIterationBudget) {
  Deadline D = Deadline::iterations(5);
  EXPECT_FALSE(D.expired(4));
  EXPECT_TRUE(D.expired(5));
  EXPECT_FALSE(Deadline().expired(1000000));
  EXPECT_TRUE(Deadline().unlimited());
  EXPECT_FALSE(D.unlimited());
}

TEST_F(RobustnessTest, ExactSolverRejectsOversizedGraphs) {
  FactorGraph G;
  for (int I = 0; I != 30; ++I)
    G.addVariable(0.5);
  Expected<Marginals> M = ExactSolver().solve(G);
  ASSERT_FALSE(M.hasValue());
  EXPECT_EQ(M.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_FALSE(M.status().message().empty());
}

TEST_F(RobustnessTest, GibbsReturnsPartialEstimateOnExpiry) {
  FactorGraph G = frustratedCycle();
  GibbsSolver::Options Opts;
  Opts.BurnIn = 0;
  Opts.Samples = 1000000;
  Opts.Budget = Deadline::iterations(50);
  SolveReport Report;
  Marginals M = GibbsSolver(Opts).solve(G, &Report);
  ASSERT_EQ(M.size(), 3u);
  EXPECT_TRUE(Report.DeadlineExpired);
  EXPECT_FALSE(Report.Converged);
  EXPECT_EQ(Report.Iterations, 50u);
  for (double P : M)
    EXPECT_TRUE(P >= 0.0 && P <= 1.0);
}

TEST_F(RobustnessTest, CountSatisfyingHonorsBudget) {
  // A 20-variable graph is 2^20 assignments: far past the first budget
  // poll, so an already-expired deadline must stop the count as a DNF
  // instead of burning through the whole enumeration.
  FactorGraph G;
  for (int I = 0; I != 20; ++I)
    G.addVariable(0.5);
  ASSERT_TRUE(ExactSolver().countSatisfying(G, 24).has_value());
  EXPECT_FALSE(ExactSolver()
                   .countSatisfying(G, 24, 0.5, Deadline::afterSeconds(0.0))
                   .has_value());
  // The injected 'deadline' fault expires even an unlimited budget.
  faults::ScopedFault Fault(FaultKind::DeadlineExpiry);
  EXPECT_FALSE(ExactSolver().countSatisfying(G, 24).has_value());
}

TEST_F(RobustnessTest, SolveLogicalHonorsBudget) {
  FactorGraph G;
  for (int I = 0; I != 20; ++I)
    G.addVariable(0.5);
  ASSERT_TRUE(ExactSolver().solveLogical(G, 24).has_value());
  EXPECT_FALSE(ExactSolver()
                   .solveLogical(G, 24, 0.5, Deadline::afterSeconds(0.0))
                   .has_value());
  faults::ScopedFault Fault(FaultKind::DeadlineExpiry);
  EXPECT_FALSE(ExactSolver().solveLogical(G, 24).has_value());
}

//===----------------------------------------------------------------------===//
// Fallback cascade
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, CascadeAtSolverLevelOnFrustratedGraph) {
  // The satellite scenario in miniature: BP misses its budget on a
  // frustrated loopy graph; the exact fallback still produces sane
  // marginals that respect the priors' bias.
  FactorGraph G = frustratedCycle();
  SumProductSolver::Options BpOpts;
  BpOpts.MaxIterations = 4;
  BpOpts.Tolerance = 1e-12;
  SolveReport BpReport;
  SumProductSolver(BpOpts).solve(G, nullptr, &BpReport);
  ASSERT_FALSE(BpReport.Converged);

  Expected<Marginals> Exact = ExactSolver().solve(G);
  ASSERT_TRUE(Exact.hasValue()) << Exact.status().str();
  ASSERT_EQ(Exact->size(), 3u);
  // Var a has prior 0.9 and c 0.3: the frustrated constraints cannot
  // invert a strong prior into certainty of the opposite.
  EXPECT_GT((*Exact)[0], 0.5);
  for (double P : *Exact)
    EXPECT_TRUE(P > 0.0 && P < 1.0);
}

TEST_F(RobustnessTest, PipelineFallsBackWhenBpCannotConverge) {
  // Force the 'bp never converges' world and check the whole pipeline
  // degrades instead of failing: specs still come out, and every
  // per-method report names the fallback solver it used.
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  faults::ScopedFault Fault(FaultKind::BpNonConvergence);

  DiagnosticEngine Diags;
  InferResult Result = runAnekInfer(*Prog, {}, &Diags);
  EXPECT_GT(Result.inferredAnnotationCount(), 0u);
  EXPECT_GT(Result.FallbackSolves, 0u);
  EXPECT_EQ(Result.MethodsFailed, 0u);
  ASSERT_FALSE(Result.Reports.empty());
  for (const auto &[M, Report] : Result.Reports) {
    EXPECT_FALSE(Report.Failed) << M->qualifiedName();
    EXPECT_TRUE(Report.Fallback) << M->qualifiedName();
    EXPECT_NE(Report.Used, SolverChoice::SumProduct) << M->qualifiedName();
    EXPECT_FALSE(Report.Reason.empty()) << M->qualifiedName();
  }
}

TEST_F(RobustnessTest, TotalSolverFailureStillDegradesGracefully) {
  // Under the 'deadline' fault every budget is expired: BP, the damped
  // retry, Gibbs, and exact all get cut off, and the pipeline must still
  // come back with its best-effort beliefs rather than crash.
  auto Prog = analyze(fileProtocolSource());
  faults::ScopedFault Fault(FaultKind::DeadlineExpiry);

  DiagnosticEngine Diags;
  InferResult Result = runAnekInfer(*Prog, {}, &Diags);
  EXPECT_EQ(Result.MethodsFailed, 0u);
  ASSERT_FALSE(Result.Reports.empty());
  for (const auto &[M, Report] : Result.Reports) {
    EXPECT_TRUE(Report.Fallback) << M->qualifiedName();
    EXPECT_FALSE(Report.Solve.Converged) << M->qualifiedName();
  }
}

//===----------------------------------------------------------------------===//
// Per-method isolation
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, OneFailingMethodDoesNotKillTheProgram) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());

  // Baseline: which methods get specs normally?
  InferResult Baseline = runAnekInfer(*Prog);
  ASSERT_GT(Baseline.inferredAnnotationCount(), 1u);

  // Poison one method's SOLVE step.
  const MethodDecl *Victim = Baseline.Inferred.begin()->first;
  faults::ScopedFault Fault(FaultKind::SolveFailure,
                            Victim->qualifiedName());

  DiagnosticEngine Diags;
  InferResult Result = runAnekInfer(*Prog, {}, &Diags);
  EXPECT_EQ(Result.MethodsFailed, 1u);
  EXPECT_GE(Diags.warningCount(), 1u);
  EXPECT_FALSE(Diags.hasErrors());

  auto It = Result.Reports.find(Victim);
  ASSERT_NE(It, Result.Reports.end());
  EXPECT_TRUE(It->second.Failed);
  EXPECT_NE(It->second.Error.find("fault"), std::string::npos);

  // The victim gets no (conservative) spec; everyone else still does.
  EXPECT_EQ(Result.Inferred.count(Victim), 0u);
  EXPECT_GE(Result.inferredAnnotationCount(),
            Baseline.inferredAnnotationCount() - 1);
  EXPECT_GT(Result.inferredAnnotationCount(), 0u);
}

TEST_F(RobustnessTest, GlobalInferIsolatesPoisonedModels) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  GlobalResult Baseline = runGlobalInfer(*Prog);
  ASSERT_GT(Baseline.Inferred.size(), 1u);

  const MethodDecl *Victim = Baseline.Inferred.begin()->first;
  faults::ScopedFault Fault(FaultKind::SolveFailure,
                            Victim->qualifiedName());

  DiagnosticEngine Diags;
  GlobalResult Result = runGlobalInfer(*Prog, {}, &Diags);
  EXPECT_EQ(Result.MethodsFailed, 1u);
  EXPECT_GE(Diags.warningCount(), 1u);
  EXPECT_EQ(Result.Inferred.count(Victim), 0u);
  EXPECT_GT(Result.Inferred.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Fault-injection harness itself
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, FaultSpecParsing) {
  EXPECT_FALSE(faults::active(FaultKind::BpNonConvergence));
  Status Ok = faults::activateSpec("bp-nonconverge, solve-fail:A.m");
  EXPECT_TRUE(Ok.isOk()) << Ok.str();
  EXPECT_TRUE(faults::active(FaultKind::BpNonConvergence));
  EXPECT_TRUE(faults::active(FaultKind::SolveFailure, "A.m"));
  EXPECT_FALSE(faults::active(FaultKind::SolveFailure, "B.n"));

  Status Bad = faults::activateSpec("no-such-fault");
  EXPECT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.code(), ErrorCode::InvalidArgument);

  faults::reset();
  EXPECT_FALSE(faults::active(FaultKind::BpNonConvergence));
}

TEST_F(RobustnessTest, ScopedFaultsNestAndUnwind) {
  {
    faults::ScopedFault Outer(FaultKind::DeadlineExpiry);
    EXPECT_TRUE(faults::active(FaultKind::DeadlineExpiry));
    {
      faults::ScopedFault Inner(FaultKind::DeadlineExpiry);
      EXPECT_TRUE(faults::active(FaultKind::DeadlineExpiry));
    }
    EXPECT_TRUE(faults::active(FaultKind::DeadlineExpiry));
  }
  EXPECT_FALSE(faults::active(FaultKind::DeadlineExpiry));
}

TEST_F(RobustnessTest, AllocPerturbDoesNotChangeMarginals) {
  // Allocation-order perturbation shifts every VarId; results must not
  // care. Build the same model with and without padding and compare the
  // exact marginals of the real variables.
  auto Build = [](FactorGraph &G) {
    VarId A = G.addVariable(0.8, "a");
    VarId B = G.addVariable(0.4, "b");
    VarId C = G.addVariable(0.6, "c");
    G.addEqualityFactor(A, B, 0.9);
    G.addPredicateFactor(
        {B, C}, [](const std::vector<bool> &X) { return X[0] || X[1]; },
        0.85);
    return std::vector<VarId>{A, B, C};
  };

  FactorGraph Plain;
  std::vector<VarId> PlainIds = Build(Plain);
  Expected<Marginals> PlainM = ExactSolver().solve(Plain);
  ASSERT_TRUE(PlainM.hasValue());

  FactorGraph Perturbed;
  std::vector<VarId> PerturbedIds;
  {
    faults::ScopedFault Fault(FaultKind::AllocPerturb);
    PerturbedIds = Build(Perturbed);
  }
  EXPECT_GT(Perturbed.variableCount(), Plain.variableCount());
  Expected<Marginals> PerturbedM = ExactSolver().solve(Perturbed);
  ASSERT_TRUE(PerturbedM.hasValue());

  for (size_t I = 0; I != PlainIds.size(); ++I)
    EXPECT_NEAR((*PlainM)[PlainIds[I]], (*PerturbedM)[PerturbedIds[I]],
                1e-9)
        << "variable " << I;
}

TEST_F(RobustnessTest, InferenceSurvivesAllocPerturb) {
  auto Prog = analyze(fileProtocolSource());
  InferResult Baseline = runAnekInfer(*Prog);

  faults::ScopedFault Fault(FaultKind::AllocPerturb);
  InferResult Perturbed = runAnekInfer(*Prog);
  EXPECT_EQ(Baseline.inferredAnnotationCount(),
            Perturbed.inferredAnnotationCount());
}

//===----------------------------------------------------------------------===//
// Structured errors in support code
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, RationalZeroDenominatorIsPoisonNotAbort) {
  Rational Invalid(1, 0);
  EXPECT_FALSE(Invalid.isValid());
  EXPECT_EQ(Invalid.str(), "<invalid>");

  Rational One(1);
  EXPECT_FALSE((One / Rational(0)).isValid());
  EXPECT_FALSE((Invalid + One).isValid());
  EXPECT_FALSE((One * Invalid).isValid());
  EXPECT_FALSE((-Invalid).isValid());
  EXPECT_FALSE(Invalid.isZero());
  EXPECT_FALSE(Invalid < One);
  EXPECT_FALSE(One < Invalid);

  // Ordinary arithmetic is untouched.
  EXPECT_EQ((Rational(1, 2) + Rational(1, 3)).str(), "5/6");
}

TEST_F(RobustnessTest, StatusAndExpectedBasics) {
  Status Ok = Status::ok();
  EXPECT_TRUE(Ok.isOk());
  EXPECT_EQ(Ok.str(), "ok");

  Status Err = Status::error(ErrorCode::DeadlineExceeded, "budget gone");
  EXPECT_FALSE(Err.isOk());
  EXPECT_EQ(Err.code(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(Err.str(), "deadline-exceeded: budget gone");

  Expected<int> Value(42);
  ASSERT_TRUE(Value.hasValue());
  EXPECT_EQ(*Value, 42);
  Expected<int> Failed(Err);
  EXPECT_FALSE(Failed.hasValue());
  EXPECT_EQ(Failed.status().code(), ErrorCode::DeadlineExceeded);
}

//===----------------------------------------------------------------------===//
// Serving-layer fault kinds, fire budgets, and site filters
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, FaultVocabularyIsCompleteAndListed) {
  // The static_assert in FaultInject.cpp keeps the table in sync at
  // compile time; this checks the runtime surface: every kind has a
  // distinct name, a description, and shows up in `anek faults`.
  ASSERT_EQ(NumFaultKinds, 10u);
  std::string FaultsOutput;
  EXPECT_EQ(runTool("faults", &FaultsOutput), 0);
  std::string ListOutput;
  EXPECT_EQ(runTool("infer --fault list", &ListOutput), 0);
  std::set<std::string> Names;
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    std::string Name = faultKindName(Kind);
    EXPECT_FALSE(Name.empty());
    EXPECT_STRNE(faultKindDescription(Kind), "");
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
    EXPECT_NE(FaultsOutput.find(Name), std::string::npos)
        << "`anek faults` does not list " << Name;
    EXPECT_NE(ListOutput.find(Name), std::string::npos)
        << "`anek --fault list` does not list " << Name;
  }
}

TEST_F(RobustnessTest, NewFaultKindsActivateAndClassify) {
  Status Ok = faults::activateSpec(
      "queue-full:reqA, transient-solve*1:reqB, mem-spike");
  ASSERT_TRUE(Ok.isOk()) << Ok.str();
  EXPECT_TRUE(faults::active(FaultKind::QueueFull, "reqA"));
  EXPECT_FALSE(faults::active(FaultKind::QueueFull, "reqZ"));
  EXPECT_TRUE(faults::active(FaultKind::TransientSolve, "reqB"));
  EXPECT_TRUE(faults::active(FaultKind::MemSpike, "anything"));

  // transient-solve is the retryable class; the others are not.
  EXPECT_EQ(faults::injectedError(FaultKind::TransientSolve, "reqB").code(),
            ErrorCode::Unavailable);
  EXPECT_EQ(faults::injectedError(FaultKind::MemSpike, "x").code(),
            ErrorCode::FaultInjected);
}

TEST_F(RobustnessTest, ShardFaultKindsClassifyAsWorkerLost) {
  // The worker-chaos kinds all surface as a lost worker: the retryable
  // class the shard coordinator re-dispatches under.
  EXPECT_EQ(faults::injectedError(FaultKind::WorkerCrash, "s0").code(),
            ErrorCode::WorkerLost);
  EXPECT_EQ(faults::injectedError(FaultKind::WorkerHang, "s0").code(),
            ErrorCode::WorkerLost);
  EXPECT_EQ(faults::injectedError(FaultKind::WireCorrupt, "s0").code(),
            ErrorCode::WorkerLost);
  Status Ok = faults::activateSpec("worker-crash*2:s1, worker-hang, "
                                   "wire-corrupt:s2");
  ASSERT_TRUE(Ok.isOk()) << Ok.str();
  EXPECT_TRUE(faults::active(FaultKind::WorkerCrash, "s1"));
  EXPECT_FALSE(faults::active(FaultKind::WorkerCrash, "s9"));
  EXPECT_TRUE(faults::active(FaultKind::WorkerHang, "anything"));
  EXPECT_TRUE(faults::active(FaultKind::WireCorrupt, "s2"));

  // A name outside the vocabulary is rejected, not ignored.
  Status Unknown = faults::activateSpec("net-refuse");
  EXPECT_FALSE(Unknown.isOk());
  EXPECT_NE(Unknown.message().find("unknown fault"), std::string::npos)
      << Unknown.str();
}

TEST_F(RobustnessTest, FireBudgetConsumesAndExhausts) {
  ASSERT_TRUE(faults::activateSpec("transient-solve*2:req1").isOk());
  // Non-consuming queries never burn the budget.
  EXPECT_TRUE(faults::active(FaultKind::TransientSolve, "req1"));
  EXPECT_TRUE(faults::active(FaultKind::TransientSolve, "req1"));
  // Two consuming fires, then the activation is exhausted.
  EXPECT_TRUE(faults::consumeFire(FaultKind::TransientSolve, "req1"));
  EXPECT_TRUE(faults::consumeFire(FaultKind::TransientSolve, "req1"));
  EXPECT_FALSE(faults::consumeFire(FaultKind::TransientSolve, "req1"));
  EXPECT_FALSE(faults::active(FaultKind::TransientSolve, "req1"));

  // Malformed budgets are rejected atomically.
  EXPECT_EQ(faults::activateSpec("transient-solve*zero").code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(faults::activateSpec("transient-solve*0").code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(faults::activateSpec("transient-solve*").code(),
            ErrorCode::InvalidArgument);
}

TEST_F(RobustnessTest, StackedScopedFaultsCoexistAndUnwind) {
  faults::ScopedFault Queue(FaultKind::QueueFull, "reqA");
  {
    faults::ScopedFault Spike(FaultKind::MemSpike);
    faults::ScopedFault Transient(FaultKind::TransientSolve, "reqB", 1);
    EXPECT_TRUE(faults::active(FaultKind::QueueFull, "reqA"));
    EXPECT_TRUE(faults::active(FaultKind::MemSpike));
    EXPECT_TRUE(faults::consumeFire(FaultKind::TransientSolve, "reqB"));
    EXPECT_FALSE(faults::consumeFire(FaultKind::TransientSolve, "reqB"));
  }
  // Inner scopes unwound; the outer activation is untouched.
  EXPECT_TRUE(faults::active(FaultKind::QueueFull, "reqA"));
  EXPECT_FALSE(faults::active(FaultKind::MemSpike));
  EXPECT_FALSE(faults::active(FaultKind::TransientSolve, "reqB"));
}

TEST_F(RobustnessTest, FaultScopePrefixesSolveFailureSites) {
  // A batch request faults its own inference via the "<scope>/<method>"
  // site label; the same program solved under another scope is untouched.
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  InferResult Baseline = runAnekInfer(*Prog);
  ASSERT_GT(Baseline.inferredAnnotationCount(), 1u);
  const MethodDecl *Victim = Baseline.Inferred.begin()->first;

  faults::ScopedFault Fault(FaultKind::SolveFailure,
                            "req1/" + Victim->qualifiedName());

  InferOptions Scoped;
  Scoped.FaultScope = "req1";
  DiagnosticEngine Diags;
  InferResult Faulted = runAnekInfer(*Prog, Scoped, &Diags);
  EXPECT_EQ(Faulted.MethodsFailed, 1u);

  InferOptions Other;
  Other.FaultScope = "req2";
  InferResult Clean = runAnekInfer(*Prog, Other);
  EXPECT_EQ(Clean.MethodsFailed, 0u);
  // No scope at all: the bare qualified name does not match either.
  InferResult NoScope = runAnekInfer(*Prog);
  EXPECT_EQ(NoScope.MethodsFailed, 0u);
}

//===----------------------------------------------------------------------===//
// Shard wire protocol: corrupt frames come back as Status errors
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, ShardWireRejectsCorruptFramesWithStatusErrors) {
  // The anek-shard-v1 decoder contract: every malformed byte stream is a
  // structured rejection — never a crash, never an unbounded allocation.
  // Header layout (Wire.h): u32 magic @0, u16 version @4, u16 type @6,
  // u64 payload-len @8, u64 fnv checksum @16, all little-endian.
  const std::string Good =
      shard::encodeFrame(shard::FrameType::Result, "sealed-outcomes-blob");
  ASSERT_TRUE(shard::parseFrame(Good).hasValue());

  auto Flip = [&](size_t At) {
    std::string S = Good;
    S[At] = static_cast<char>(S[At] ^ 0x20);
    return S;
  };
  auto Set = [&](size_t At, char To) {
    std::string S = Good;
    S[At] = To;
    return S;
  };

  struct CorruptCase {
    const char *Name;
    std::string Bytes;
    ErrorCode Want;
  };
  const CorruptCase Cases[] = {
      {"empty stream", std::string(), ErrorCode::InvalidArgument},
      {"truncated header", Good.substr(0, shard::FrameHeaderBytes - 1),
       ErrorCode::InvalidArgument},
      {"bad magic", Flip(0), ErrorCode::InvalidArgument},
      // Version 1 predates the Telemetry frame; v2 decoders reject v1
      // peers outright (same-binary contract, see Wire.h).
      {"stale protocol version", Set(4, 1), ErrorCode::InvalidArgument},
      {"future protocol version", Set(4, 3), ErrorCode::InvalidArgument},
      {"frame type zero", Set(6, 0), ErrorCode::InvalidArgument},
      {"unknown frame type", Set(6, 0x7f), ErrorCode::InvalidArgument},
      // Byte 12 is bit 32 of the length field: declares ~4 GiB, far over
      // the MaxFramePayload cap. The decoder must refuse to allocate.
      {"oversized declared length", Set(12, 1), ErrorCode::ResourceExhausted},
      {"declared length over actual", Set(8, 21), ErrorCode::InvalidArgument},
      {"truncated payload", Good.substr(0, Good.size() - 1),
       ErrorCode::InvalidArgument},
      {"payload byte flip", Flip(Good.size() - 3),
       ErrorCode::InvalidArgument},
      {"checksum field flip", Flip(16), ErrorCode::InvalidArgument},
  };
  for (const CorruptCase &C : Cases) {
    Expected<shard::Frame> F = shard::parseFrame(C.Bytes);
    ASSERT_FALSE(F.hasValue()) << C.Name << " parsed";
    EXPECT_EQ(F.status().code(), C.Want)
        << C.Name << ": " << F.status().str();
    EXPECT_NE(F.status().str().find("shard frame rejected"),
              std::string::npos)
        << C.Name << ": " << F.status().str();
  }
}

TEST_F(RobustnessTest, ParseFrameHonorsConfigurableCap) {
  // --shard-max-frame-bytes plumbs down to this parameter: a frame whose
  // declared payload exceeds the configured cap is refused before any
  // allocation, and a cap below the protocol floor silently clamps up so
  // heartbeat-sized frames always fit.
  std::string Payload(10000, 'x');
  const std::string Big = shard::encodeFrame(shard::FrameType::Result, Payload);
  EXPECT_TRUE(shard::parseFrame(Big).hasValue());
  EXPECT_TRUE(shard::parseFrame(Big, 16384).hasValue());
  Expected<shard::Frame> Capped = shard::parseFrame(Big, 8192);
  ASSERT_FALSE(Capped.hasValue());
  EXPECT_EQ(Capped.status().code(), ErrorCode::ResourceExhausted);
  // Below the floor: clamps to MinConfigurableFramePayload, not to 1.
  const std::string Small = shard::encodeFrame(shard::FrameType::Result, "ok");
  EXPECT_TRUE(shard::parseFrame(Small, 1).hasValue());
}

//===----------------------------------------------------------------------===//
// EINTR robustness of the shard tier's blocking I/O
//===----------------------------------------------------------------------===//

namespace {

std::atomic<unsigned> UsrSignalsSeen{0};
void countUsrSignal(int) {
  UsrSignalsSeen.fetch_add(1, std::memory_order_relaxed);
}

/// Installs a non-SA_RESTART SIGUSR1 handler for the test's lifetime, so
/// every delivery interrupts a blocking syscall with EINTR instead of
/// the kernel transparently restarting it.
struct InterruptingHandler {
  struct sigaction Old;
  InterruptingHandler() {
    struct sigaction Sa;
    std::memset(&Sa, 0, sizeof(Sa));
    Sa.sa_handler = countUsrSignal;
    sigemptyset(&Sa.sa_mask);
    Sa.sa_flags = 0; // Deliberately no SA_RESTART.
    ::sigaction(SIGUSR1, &Sa, &Old);
  }
  ~InterruptingHandler() { ::sigaction(SIGUSR1, &Old, nullptr); }
};

} // namespace

TEST_F(RobustnessTest, WriteFullSurvivesEintrStormAndPartialWrites) {
  // A coordinator writing a Task frame while the soak harness's chaos
  // signals land must never see a spurious short write. Storm a thread
  // blocked in writeFull with non-restarting signals while draining its
  // pipe slowly, so the call eats both EINTR and partial writes.
  InterruptingHandler Guard;
  UsrSignalsSeen.store(0);
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
#ifdef F_SETPIPE_SZ
  // Shrink the pipe so a 1 MiB payload needs many kernel-level writes.
  ::fcntl(Fds[1], F_SETPIPE_SZ, 4096);
#endif
  const size_t Size = 1 << 20;
  std::vector<unsigned char> Payload(Size);
  for (size_t I = 0; I != Size; ++I)
    Payload[I] = static_cast<unsigned char>(I * 131 + 7);

  Status WriteResult = Status::ok();
  std::thread Writer([&] {
    WriteResult = subprocess::writeFull(Fds[1], Payload.data(), Size);
  });
  std::vector<unsigned char> Received;
  Received.reserve(Size);
  unsigned char Buf[8192];
  while (Received.size() < Size) {
    pthread_kill(Writer.native_handle(), SIGUSR1);
    Status Ready = subprocess::waitReadable(Fds[0], 10.0);
    ASSERT_TRUE(Ready.isOk()) << Ready.str();
    ssize_t N = ::read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    ASSERT_GT(N, 0);
    Received.insert(Received.end(), Buf, Buf + N);
  }
  Writer.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
  ASSERT_TRUE(WriteResult.isOk()) << WriteResult.str();
  ASSERT_EQ(Received.size(), Size);
  EXPECT_TRUE(std::equal(Received.begin(), Received.end(), Payload.begin()));
  // The storm must actually have landed for the test to mean anything.
  EXPECT_GT(UsrSignalsSeen.load(), 0u);
}

TEST_F(RobustnessTest, WaitReadableSurvivesEintrStorm) {
  InterruptingHandler Guard;
  UsrSignalsSeen.store(0);
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);

  // (a) Interrupted polls must not stretch the deadline: a storm that
  // outlives the timeout still gets DeadlineExceeded about on time —
  // a naive full-timeout retry after each EINTR would hang here.
  Status WaitResult = Status::ok();
  std::thread Waiter(
      [&] { WaitResult = subprocess::waitReadable(Fds[0], 0.3); });
  for (int I = 0; I != 60; ++I) {
    pthread_kill(Waiter.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Waiter.join();
  EXPECT_EQ(WaitResult.code(), ErrorCode::DeadlineExceeded)
      << WaitResult.str();
  EXPECT_GT(UsrSignalsSeen.load(), 0u);

  // (b) Data arriving mid-storm is still seen: the retry must re-poll,
  // not give up on the interruption.
  Status WaitResult2 = Status::ok();
  std::thread Waiter2(
      [&] { WaitResult2 = subprocess::waitReadable(Fds[0], 10.0); });
  for (int I = 0; I != 10; ++I) {
    pthread_kill(Waiter2.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(::write(Fds[1], "x", 1), 1);
  Waiter2.join();
  EXPECT_TRUE(WaitResult2.isOk()) << WaitResult2.str();

  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST_F(RobustnessTest, ConcurrentSpawnsNeverLeakPipesToSiblings) {
  // Two dispatch threads spawning workers at once: if a sibling forked
  // inside the other spawn's pipe-to-fork window inherits that worker's
  // stdout write end, a SIGKILLed worker's stdout never reaches EOF and
  // its loss waits out the heartbeat deadline as a phantom hang. Kill one
  // child of each concurrent pair; its stdout must report the loss
  // (WorkerLost) well within a second.
  const std::vector<std::string> Argv = {ANEK_TOOL_PATH, "--worker"};
  for (int Round = 0; Round != 200; ++Round) {
    subprocess::ChildProcess A, B;
    Status SpawnA = Status::ok(), SpawnB = Status::ok();
    std::thread ThreadA([&] { SpawnA = A.spawn(Argv); });
    std::thread ThreadB([&] { SpawnB = B.spawn(Argv); });
    ThreadA.join();
    ThreadB.join();
    ASSERT_TRUE(SpawnA.isOk()) << SpawnA.str();
    ASSERT_TRUE(SpawnB.isOk()) << SpawnB.str();
    A.kill(SIGKILL);
    Expected<shard::Frame> F = shard::readFrame(A.readFd(), 1.0);
    ASSERT_FALSE(F.hasValue()) << "round " << Round;
    ASSERT_EQ(F.status().code(), ErrorCode::WorkerLost)
        << "round " << Round << ": " << F.status().str();
  }
}

TEST_F(RobustnessTest, DriverAcceptsJoinedFaultSpelling) {
  // --fault=SPEC goes through flagValue like every other value flag.
  std::string Output;
  int Exit = runTool(
      "infer --example spreadsheet --report --fault=bp-nonconverge",
      &Output);
  EXPECT_EQ(Exit, 0) << Output;
  EXPECT_NE(Output.find("(fallback)"), std::string::npos) << Output;
  // Malformed specs are usage errors in either spelling.
  EXPECT_EQ(runTool("infer --example file --fault=transient-solve*zero"), 2);
  EXPECT_EQ(runTool("infer --example file --fault transient-solve*zero"), 2);
}

} // namespace
