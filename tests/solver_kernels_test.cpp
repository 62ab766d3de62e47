//===- solver_kernels_test.cpp - Flat solver kernel property tests ---------===//
//
// The `ctest -L solver` suite for the CSR message-passing kernels
// (DESIGN.md, "Solver kernel layout"): randomized BP/Gibbs-vs-exact
// marginal checks over many small graphs, the SolveReport convergence
// contract, residual-scheduling equivalence, the log-domain fixup for
// high-degree variables, and the invariants of the cached edge layout
// itself. Every test is seeded and deterministic, and
// the whole file is meant to run under ASan/UBSan/TSan presets.
//
//===----------------------------------------------------------------------===//

#include "factor/FactorGraph.h"
#include "factor/Kernels.h"
#include "factor/Solvers.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

using namespace anek;

namespace {

/// A random small graph with mixed factor arities (1..4) and soft,
/// bounded-dynamic-range tables. The bounds keep loopy BP a usable
/// approximation of the exact marginals, which is exactly the regime
/// constraint generation produces (paper Eq. 6 uses h vs 1-h weights).
FactorGraph randomGraph(uint64_t Seed) {
  Rng Random(Seed);
  FactorGraph G;
  const unsigned NumVars = 4 + static_cast<unsigned>(Random.below(9)); // 4..12
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.15 + 0.7 * Random.uniform());
  const unsigned NumFactors =
      NumVars + static_cast<unsigned>(Random.below(NumVars));
  for (unsigned F = 0; F != NumFactors; ++F) {
    const unsigned Arity =
        1 + static_cast<unsigned>(Random.below(std::min(4u, NumVars)));
    // Distinct scope variables via rejection.
    std::vector<VarId> Scope;
    while (Scope.size() != Arity) {
      VarId V = static_cast<VarId>(Random.below(NumVars));
      bool Seen = false;
      for (VarId S : Scope)
        Seen |= S == V;
      if (!Seen)
        Scope.push_back(V);
    }
    std::vector<double> Table(size_t{1} << Arity);
    for (double &W : Table)
      W = 0.25 + 0.75 * Random.uniform();
    G.addFactor(std::move(Scope), std::move(Table));
  }
  return G;
}

} // namespace

//===----------------------------------------------------------------------===//
// Edge layout invariants
//===----------------------------------------------------------------------===//

TEST(EdgeLayoutTest, CsrInvariants) {
  FactorGraph G = randomGraph(42);
  const FactorGraph::EdgeLayout &L = G.edgeLayout();

  // One edge per (factor, slot); factor-major offsets partition them.
  uint32_t Expected = 0;
  for (uint32_t F = 0; F != G.factorCount(); ++F) {
    EXPECT_EQ(L.FactorOffset[F], Expected);
    EXPECT_EQ(L.factorDegree(F), G.factor(F).Scope.size());
    for (uint32_t K = 0; K != G.factor(F).Scope.size(); ++K) {
      const uint32_t E = L.FactorOffset[F] + K;
      EXPECT_EQ(L.EdgeVar[E], G.factor(F).Scope[K]);
      EXPECT_EQ(L.EdgeFactor[E], F);
      EXPECT_EQ(L.EdgeSlotBit[E], uint32_t{1} << K);
      EXPECT_EQ(L.EdgeVarMask[E], L.EdgeSlotBit[E]); // No repeated vars.
    }
    Expected += static_cast<uint32_t>(G.factor(F).Scope.size());
  }
  EXPECT_EQ(L.edgeCount(), Expected);
  EXPECT_EQ(L.FactorOffset[G.factorCount()], Expected);

  // Variable-major view: a permutation of all edges, ascending within
  // each variable, degrees consistent with the factor-major view.
  std::vector<bool> SeenEdge(L.edgeCount(), false);
  uint32_t MaxVarDegree = 0;
  for (VarId V = 0; V != G.variableCount(); ++V) {
    MaxVarDegree = std::max(MaxVarDegree, L.varDegree(V));
    for (uint32_t I = L.VarOffset[V]; I != L.VarOffset[V + 1]; ++I) {
      const uint32_t E = L.VarEdges[I];
      EXPECT_EQ(L.EdgeVar[E], V);
      EXPECT_FALSE(SeenEdge[E]);
      SeenEdge[E] = true;
      if (I + 1 != L.VarOffset[V + 1])
        EXPECT_LT(E, L.VarEdges[I + 1]); // (factor, slot) order.
    }
  }
  EXPECT_EQ(MaxVarDegree, L.MaxVarDegree);
}

TEST(EdgeLayoutTest, InvalidatedByGraphGrowth) {
  FactorGraph G;
  VarId A = G.addVariable(0.5), B = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.9);
  EXPECT_EQ(G.edgeLayout().edgeCount(), 2u);
  G.addFactor({B}, {1.0, 2.0});
  EXPECT_EQ(G.edgeLayout().edgeCount(), 3u); // Rebuilt, not stale.
  VarId C = G.addVariable(0.5);
  G.addEqualityFactor(A, C, 0.9);
  EXPECT_EQ(G.edgeLayout().edgeCount(), 5u);
  EXPECT_EQ(G.edgeLayout().varDegree(C), 1u);
}

TEST(EdgeLayoutTest, RepeatedScopeVariableGetsFullMask) {
  FactorGraph G;
  VarId A = G.addVariable(0.5);
  VarId B = G.addVariable(0.5);
  G.addFactor({A, B, A}, std::vector<double>(8, 1.0));
  const FactorGraph::EdgeLayout &L = G.edgeLayout();
  EXPECT_EQ(L.EdgeVarMask[0], 0b101u);
  EXPECT_EQ(L.EdgeVarMask[1], 0b010u);
  EXPECT_EQ(L.EdgeVarMask[2], 0b101u);
  EXPECT_EQ(L.EdgeSlotBit[2], 0b100u);
}

//===----------------------------------------------------------------------===//
// Randomized property: kernel marginals vs exact enumeration
//===----------------------------------------------------------------------===//

/// Solves >=50 random graphs with the flat BP and Gibbs kernels and
/// checks both against ExactSolver ground truth.
class KernelVsExactTest : public testing::TestWithParam<int> {};

TEST_P(KernelVsExactTest, BpAndGibbsTrackExactMarginals) {
  const uint64_t Seed = static_cast<uint64_t>(GetParam()) * 104729 + 17;
  FactorGraph G = randomGraph(Seed);
  Expected<Marginals> Exact = ExactSolver().solve(G);
  ASSERT_TRUE(Exact.hasValue()) << Exact.status().str();

  SumProductSolver::Options BpOpts;
  BpOpts.MaxIterations = 200;
  SolveReport BpReport;
  Marginals Bp = SumProductSolver(BpOpts).solve(G, nullptr, &BpReport);
  ASSERT_EQ(Bp.size(), Exact->size());
  for (unsigned V = 0; V != Bp.size(); ++V)
    EXPECT_NEAR(Bp[V], (*Exact)[V], 0.2) << "seed " << Seed << " var " << V;
  // Confident exact decisions must survive the approximation.
  for (unsigned V = 0; V != Bp.size(); ++V)
    if (std::fabs((*Exact)[V] - 0.5) > 0.2)
      EXPECT_EQ(Bp[V] > 0.5, (*Exact)[V] > 0.5)
          << "seed " << Seed << " var " << V;

  GibbsSolver::Options GibbsOpts;
  GibbsOpts.BurnIn = 400;
  GibbsOpts.Samples = 6000;
  GibbsOpts.Seed = Seed ^ 0xABCD;
  SolveReport GibbsReport;
  Marginals Gibbs = GibbsSolver(GibbsOpts).solve(G, &GibbsReport);
  EXPECT_TRUE(GibbsReport.Converged);
  ASSERT_EQ(Gibbs.size(), Exact->size());
  for (unsigned V = 0; V != Gibbs.size(); ++V)
    EXPECT_NEAR(Gibbs[V], (*Exact)[V], 0.1)
        << "seed " << Seed << " var " << V;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelVsExactTest, testing::Range(0, 50));

TEST(KernelVsExactTest, GibbsHandlesRepeatedScopeVariable) {
  // A factor whose scope repeats a variable: both occurrences must move
  // together under incremental index maintenance. jointWeight (and thus
  // ExactSolver) reads the same table cell, so agreement here pins the
  // mask-based evaluation down.
  FactorGraph G;
  VarId A = G.addVariable(0.5);
  VarId B = G.addVariable(0.4);
  G.addFactor({A, B, A}, {4.0, 0.5, 4.0, 0.5, 0.5, 2.0, 0.5, 6.0});
  Expected<Marginals> Exact = ExactSolver().solve(G);
  ASSERT_TRUE(Exact.hasValue());
  GibbsSolver::Options Opts;
  Opts.BurnIn = 500;
  Opts.Samples = 20000;
  Marginals Gibbs = GibbsSolver(Opts).solve(G);
  EXPECT_NEAR(Gibbs[A], (*Exact)[A], 0.05);
  EXPECT_NEAR(Gibbs[B], (*Exact)[B], 0.05);
}

//===----------------------------------------------------------------------===//
// Convergence-report contract
//===----------------------------------------------------------------------===//

TEST(SolveReportContractTest, ConvergedRunReportsWithinTolerance) {
  FactorGraph G = randomGraph(7);
  SumProductSolver::Options Opts;
  SolveReport Report;
  SumProductSolver(Opts).solve(G, nullptr, &Report);
  ASSERT_TRUE(Report.Converged);
  EXPECT_LE(Report.Residual, Opts.Tolerance);
  EXPECT_LE(Report.Iterations, Opts.MaxIterations);
  EXPECT_GT(Report.Updates, 0u);
}

TEST(SolveReportContractTest, IterationCapReportsNonConvergence) {
  // The pre-CSR contract: an exhausted iteration budget reports exactly
  // MaxIterations iterations, a residual above tolerance, and no
  // convergence claim.
  FactorGraph G;
  VarId A = G.addVariable(0.9), B = G.addVariable(0.5),
        C = G.addVariable(0.3);
  auto Disagree = [](const std::vector<bool> &X) { return X[0] != X[1]; };
  G.addPredicateFactor({A, B}, Disagree, 0.99);
  G.addPredicateFactor({B, C}, Disagree, 0.99);
  G.addPredicateFactor({C, A}, Disagree, 0.99);
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

TEST(SolveReportContractTest, SchedulingOffMatchesSchedulingOn) {
  for (uint64_t Seed : {3u, 11u, 29u}) {
    FactorGraph G = randomGraph(Seed);
    SumProductSolver::Options On;
    On.MaxIterations = 300;
    SumProductSolver::Options Off = On;
    Off.ResidualScheduling = false;
    SolveReport OnReport, OffReport;
    Marginals MOn = SumProductSolver(On).solve(G, nullptr, &OnReport);
    Marginals MOff = SumProductSolver(Off).solve(G, nullptr, &OffReport);
    EXPECT_TRUE(OnReport.Converged) << "seed " << Seed;
    EXPECT_TRUE(OffReport.Converged) << "seed " << Seed;
    EXPECT_EQ(OffReport.SkippedUpdates, 0u);
    ASSERT_EQ(MOn.size(), MOff.size());
    // Skipping only elides sub-tolerance movement, so the fixed points
    // must agree to within a few tolerances.
    for (unsigned V = 0; V != MOn.size(); ++V)
      EXPECT_NEAR(MOn[V], MOff[V], 10 * On.Tolerance)
          << "seed " << Seed << " var " << V;
  }
}

TEST(SolveReportContractTest, SchedulingSkipsWorkOnEasyGraphs) {
  // A long chain converges region by region: residual scheduling must
  // actually elide factor sweeps there, and still converge to the same
  // answer (checked above). This is the perf claim in microcosm.
  FactorGraph G;
  std::vector<VarId> Vars;
  for (unsigned I = 0; I != 64; ++I)
    Vars.push_back(G.addVariable(I == 0 ? 0.95 : 0.5));
  for (unsigned I = 0; I + 1 != Vars.size(); ++I)
    G.addEqualityFactor(Vars[I], Vars[I + 1], 0.9);
  SumProductSolver::Options Opts;
  Opts.MaxIterations = 500;
  SolveReport Report;
  SumProductSolver(Opts).solve(G, nullptr, &Report);
  EXPECT_TRUE(Report.Converged);
  EXPECT_GT(Report.SkippedUpdates, 0u);
}

TEST(SolveReportContractTest, GraphLikelihoodStillCavityOnTrees) {
  // The graph-side belief contract (summary extraction depends on it):
  // on a tree, dividing the prior out of the marginal equals the
  // product of incoming messages the flat kernel reports.
  FactorGraph G;
  VarId A = G.addVariable(0.9);
  VarId B = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.9);
  Marginals Belief;
  Marginals M = SumProductSolver().solve(G, &Belief);
  ASSERT_EQ(Belief.size(), 2u);
  Expected<Marginals> Exact = ExactSolver().solve(G);
  ASSERT_TRUE(Exact.hasValue());
  for (unsigned V = 0; V != 2; ++V) {
    double Prior = G.variable(V).Prior;
    double OddsCavity = (M[V] / (1 - M[V])) / (Prior / (1 - Prior));
    EXPECT_NEAR(Belief[V], OddsCavity / (1 + OddsCavity), 1e-6)
        << "var " << V;
  }
}

TEST(SolveReportContractTest, DeterministicAcrossRepeatedSolves) {
  // Identical option sets must produce bitwise-identical marginals and
  // reports on repeated solves of the same graph — the layout cache must
  // not leak state between solves (the fallback cascade reuses it).
  FactorGraph G = randomGraph(13);
  SumProductSolver Bp;
  SolveReport R1, R2;
  Marginals M1 = Bp.solve(G, nullptr, &R1);
  Marginals M2 = Bp.solve(G, nullptr, &R2);
  EXPECT_EQ(M1, M2);
  EXPECT_EQ(R1.Iterations, R2.Iterations);
  EXPECT_EQ(R1.Residual, R2.Residual);
  EXPECT_EQ(R1.Updates, R2.Updates);
  EXPECT_EQ(R1.SkippedUpdates, R2.SkippedUpdates);

  GibbsSolver Gibbs;
  SolveReport G1, G2;
  EXPECT_EQ(Gibbs.solve(G, &G1), Gibbs.solve(G, &G2));
  EXPECT_EQ(G1.Updates, G2.Updates);
}

TEST(LogDomainFixupTest, HighDegreeStarStaysInterior) {
  // A hub variable far past LogDomainMinDegree: the plain product of its
  // 96 clamped incoming messages underflows toward 0, so the driver's
  // log-domain fixup has to carry the signal.
  constexpr unsigned Leaves = 96;
  static_assert(Leaves > kern::LogDomainMinDegree);
  FactorGraph G;
  VarId Hub = G.addVariable(0.7);
  for (unsigned L = 0; L != Leaves; ++L) {
    VarId Leaf = G.addVariable(L % 2 ? 0.9 : 0.1);
    G.addEqualityFactor(Hub, Leaf, 0.8);
  }

  SumProductSolver::Options O;
  O.MaxIterations = 50;
  Marginals M = SumProductSolver(O).solve(G);
  for (double P : M) {
    EXPECT_TRUE(std::isfinite(P));
    EXPECT_GE(P, 0.0);
    EXPECT_LE(P, 1.0);
  }
  // Balanced opposing evidence must not collapse to an exact endpoint —
  // the underflow symptom the log domain exists to prevent.
  EXPECT_GT(M[Hub], 0.0);
  EXPECT_LT(M[Hub], 1.0);
}
