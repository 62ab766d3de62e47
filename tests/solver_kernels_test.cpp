//===- solver_kernels_test.cpp - Flat solver kernel property tests ---------===//
//
// The `ctest -L solver` suite for the CSR message-passing kernels
// (DESIGN.md, "Solver kernel layout"): randomized BP-vs-exact marginal
// checks over many small graphs, the SolveReport convergence
// contract, residual scheduling keeping BP's fixed point (against a
// near-exact solve on random graphs and ExactSolver on random trees),
// the log-domain fixup for high-degree variables, every output bit of
// the BP kernels pinned on three graphs, and the invariants of the
// edge layout itself, the graph's one factor store. Every test is
// seeded and deterministic, and the whole file is meant to run under
// ASan/UBSan/TSan presets.
//
//===----------------------------------------------------------------------===//

#include "factor/FactorGraph.h"
#include "factor/Kernels.h"
#include "factor/Solvers.h"
#include "support/Rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// A random factor tree over 6..20 variables: every factor ties one
/// variable already in the tree to 0..3 new ones, so the factor graph
/// has no loop and BP's fixed point is exact. Priors and tables are
/// drawn as in randomGraph.
FactorGraph randomTree(uint64_t Seed) {
  Rng Random(Seed);
  FactorGraph G;
  const unsigned NumVars = 6 + static_cast<unsigned>(Random.below(15));
  G.addVariable(0.15 + 0.7 * Random.uniform());
  while (G.variableCount() != NumVars) {
    const unsigned NewVars = std::min(static_cast<unsigned>(Random.below(4)),
                                      NumVars - G.variableCount());
    std::vector<VarId> Scope = {
        static_cast<VarId>(Random.below(G.variableCount()))};
    for (unsigned K = 0; K != NewVars; ++K)
      Scope.push_back(G.addVariable(0.15 + 0.7 * Random.uniform()));
    std::vector<double> Table(size_t{1} << Scope.size());
    for (double &W : Table)
      W = 0.25 + 0.75 * Random.uniform();
    G.addFactor(std::move(Scope), std::move(Table));
  }
  return G;
}

/// A 64-variable equality chain with evidence at one end only, so BP
/// converges region by region and residual scheduling has work to skip.
FactorGraph chainGraph() {
  FactorGraph G;
  std::vector<VarId> Vars;
  for (unsigned I = 0; I != 64; ++I)
    Vars.push_back(G.addVariable(I == 0 ? 0.95 : 0.5));
  for (unsigned I = 0; I + 1 != Vars.size(); ++I)
    G.addEqualityFactor(Vars[I], Vars[I + 1], 0.9);
  return G;
}

/// Leaves of starGraph(): enough that the hub's degree is far past
/// LogDomainMinDegree.
constexpr unsigned StarLeaves = 96;
static_assert(StarLeaves > kern::LogDomainMinDegree);

/// A hub (variable 0) tied to StarLeaves leaves of alternating opposing
/// evidence: the plain product of the hub's clamped incoming messages
/// underflows toward 0, so the driver's log-domain fixup has to carry
/// the signal.
FactorGraph starGraph() {
  FactorGraph G;
  VarId Hub = G.addVariable(0.7);
  for (unsigned L = 0; L != StarLeaves; ++L) {
    VarId Leaf = G.addVariable(L % 2 ? 0.9 : 0.1);
    G.addEqualityFactor(Hub, Leaf, 0.8);
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
      if (I + 1 != L.VarOffset[V + 1]) {
        EXPECT_LT(E, L.VarEdges[I + 1]); // (factor, slot) order.
      }
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

TEST(EdgeLayoutTest, FactorViewsTheLayout) {
  FactorGraph G = randomGraph(7);
  const FactorGraph::EdgeLayout &L = G.edgeLayout();

  // Each factor is stored once: its scope and table are the layout's
  // factor-major arrays at the factor's offsets.
  std::vector<std::vector<VarId>> Scopes;
  std::vector<std::vector<double>> Tables;
  for (uint32_t F = 0; F != G.factorCount(); ++F) {
    const FactorGraph::Factor Factor = G.factor(F);
    const uint32_t Deg = L.factorDegree(F);
    EXPECT_EQ(Factor.Scope.data(), L.EdgeVar.data() + L.FactorOffset[F]);
    EXPECT_EQ(Factor.Scope.size(), Deg);
    EXPECT_EQ(Factor.Table.data(), L.TableFlat.data() + L.TableOffset[F]);
    EXPECT_EQ(Factor.Table.size(), size_t{1} << Deg);
    Scopes.emplace_back(Factor.Scope.begin(), Factor.Scope.end());
    Tables.emplace_back(Factor.Table.begin(), Factor.Table.end());
  }

  // Growth may move the store; the earlier factors keep their values.
  G.addFactor({0, 1}, {1.0, 2.0, 3.0, 4.0});
  for (uint32_t F = 0; F != Scopes.size(); ++F) {
    const FactorGraph::Factor Factor = G.factor(F);
    EXPECT_EQ(std::vector<VarId>(Factor.Scope.begin(), Factor.Scope.end()),
              Scopes[F]);
    EXPECT_EQ(std::vector<double>(Factor.Table.begin(), Factor.Table.end()),
              Tables[F]);
  }
  const FactorGraph::Factor Added = G.factor(G.factorCount() - 1);
  EXPECT_EQ(std::vector<VarId>(Added.Scope.begin(), Added.Scope.end()),
            (std::vector<VarId>{0, 1}));
  EXPECT_EQ(std::vector<double>(Added.Table.begin(), Added.Table.end()),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

//===----------------------------------------------------------------------===//
// Randomized property: kernel marginals vs exact enumeration
//===----------------------------------------------------------------------===//

/// Solves >=50 random graphs with the flat BP kernels and checks them
/// against ExactSolver ground truth.
class KernelVsExactTest : public testing::TestWithParam<int> {};

TEST_P(KernelVsExactTest, BpTracksExactMarginals) {
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
    if (std::fabs((*Exact)[V] - 0.5) > 0.2) {
      EXPECT_EQ(Bp[V] > 0.5, (*Exact)[V] > 0.5)
          << "seed " << Seed << " var " << V;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelVsExactTest, testing::Range(0, 50));

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

TEST(SolveReportContractTest, SkippingKeepsTheFixedPoint) {
  // Skipping elides only sub-tolerance movement, so a default solve must
  // land within a few tolerances of one run almost to the fixed point
  // (at Tolerance 1e-13 a factor is skipped only once its inputs have
  // moved less than 5e-14).
  const SumProductSolver::Options Default;
  SumProductSolver::Options Tight;
  Tight.MaxIterations = 300;
  Tight.Tolerance = 1e-13;
  for (uint64_t Seed : {3u, 11u, 29u}) {
    FactorGraph G = randomGraph(Seed);
    SolveReport DefaultReport, TightReport;
    Marginals M = SumProductSolver(Default).solve(G, nullptr, &DefaultReport);
    Marginals Fixed = SumProductSolver(Tight).solve(G, nullptr, &TightReport);
    EXPECT_TRUE(DefaultReport.Converged) << "seed " << Seed;
    EXPECT_TRUE(TightReport.Converged) << "seed " << Seed;
    ASSERT_EQ(M.size(), Fixed.size());
    for (unsigned V = 0; V != M.size(); ++V)
      EXPECT_NEAR(M[V], Fixed[V], 10 * Default.Tolerance)
          << "seed " << Seed << " var " << V;
  }
  // On a tree the fixed point is the exact marginals, so skipping must
  // not keep a default solve from reaching them.
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    FactorGraph G = randomTree(Seed);
    Expected<Marginals> Exact = ExactSolver().solve(G);
    ASSERT_TRUE(Exact.hasValue()) << Exact.status().str();
    SolveReport Report;
    Marginals M = SumProductSolver(Default).solve(G, nullptr, &Report);
    EXPECT_TRUE(Report.Converged) << "tree " << Seed;
    ASSERT_EQ(M.size(), Exact->size());
    for (unsigned V = 0; V != M.size(); ++V)
      EXPECT_NEAR(M[V], (*Exact)[V], 1e-4) << "tree " << Seed << " var " << V;
  }
}

TEST(SolveReportContractTest, SchedulingSkipsWorkOnEasyGraphs) {
  // A long chain converges region by region: residual scheduling must
  // actually elide factor sweeps there, and still converge to the same
  // answer (checked above). This is the perf claim in microcosm.
  FactorGraph G = chainGraph();
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
}

TEST(LogDomainFixupTest, HighDegreeStarStaysInterior) {
  FactorGraph G = starGraph();
  const VarId Hub = 0;
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

//===----------------------------------------------------------------------===//
// Pinned bits
//===----------------------------------------------------------------------===//

namespace {

/// Everything one BP solve reports. The values below are recorded
/// output: every spec and every in-run memo key is computed from these
/// bits, so a kernel edit that moves one must say so and re-pin.
struct BpPin {
  unsigned Iterations;
  uint64_t Updates;
  uint64_t SkippedUpdates;
  double Residual;
  std::vector<double> Marginals;
};

/// randomGraph(3) at MaxIterations 300: factors of arity 1, 2 and 4, so
/// the closed forms and the general table sweep.
const BpPin RandomGraphPin = {
    10, 206, 9, 0x1.8733f1032p-18,
    {0x1.4c6ac5dff1571p-1, 0x1.32c23b99616f7p-1, 0x1.1394eaaea4745p-2,
     0x1.a7fd7f6c4df1ap-2}};

/// starGraph() at MaxIterations 50: the log-domain fixup.
const BpPin StarPin = {
    10, 3744, 48, 0x1.09d82e24p-18,
    {0x1.6666db95ea8bbp-1, 0x1.c9b57393f045bp-3, 0x1.c70d5b687dda8p-1,
     0x1.c9b57393f0442p-3, 0x1.c70d5b687dda9p-1, 0x1.c9b57393f0442p-3,
     0x1.c70d5b687dda2p-1, 0x1.c9b57393f0442p-3, 0x1.c70d5b687dda9p-1,
     0x1.c9b57393f045bp-3, 0x1.c70d5b687dda8p-1, 0x1.c9b57393f0446p-3,
     0x1.c70d5b687dda9p-1, 0x1.c9b57393f0442p-3, 0x1.c70d5b687dda8p-1,
     0x1.c9b57393f0442p-3, 0x1.c70d5b687dda9p-1, 0x1.c9b57393f045bp-3,
     0x1.c70d5b687dda9p-1, 0x1.c9b57393f0453p-3, 0x1.c70d5b687ddaap-1,
     0x1.c9b57393f0453p-3, 0x1.c70d5b687ddbp-1, 0x1.c9b57393f0453p-3,
     0x1.c70d5b687ddaap-1, 0x1.c9b57393f0453p-3, 0x1.c70d5b687ddaap-1,
     0x1.c9b57393f044bp-3, 0x1.c70d5b687ddaep-1, 0x1.c9b57393f0449p-3,
     0x1.c70d5b687ddaep-1, 0x1.c9b57393f0449p-3, 0x1.c70d5b687ddaep-1,
     0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaap-1, 0x1.c9b57393f0446p-3,
     0x1.c70d5b687dda9p-1, 0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1,
     0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1, 0x1.c9b57393f0446p-3,
     0x1.c70d5b687ddaep-1, 0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1,
     0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1, 0x1.c9b57393f0446p-3,
     0x1.c70d5b687ddaep-1, 0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1,
     0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1, 0x1.c9b57393f0446p-3,
     0x1.c70d5b687ddaep-1, 0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1,
     0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaep-1, 0x1.c9b57393f0446p-3,
     0x1.c70d5b687ddaap-1, 0x1.c9b57393f0446p-3, 0x1.c70d5b687ddaap-1,
     0x1.c9b57393f0449p-3, 0x1.c70d5b687ddaep-1, 0x1.c9b57393f0449p-3,
     0x1.c70d5b687ddaep-1, 0x1.c9b57393f044bp-3, 0x1.c70d5b687ddaep-1,
     0x1.c9b57393f0453p-3, 0x1.c70d5b687ddaap-1, 0x1.c9b57393f0453p-3,
     0x1.c70d5b687ddaap-1, 0x1.c9b57393f0453p-3, 0x1.c70d5b687ddbp-1,
     0x1.c9b57393f0453p-3, 0x1.c70d5b687ddaap-1, 0x1.c9b57393f0458p-3,
     0x1.c70d5b687ddaap-1, 0x1.c9b57393f0453p-3, 0x1.c70d5b687ddaep-1,
     0x1.c9b57393f0439p-3, 0x1.c70d5b687dda6p-1, 0x1.c9b57393f0439p-3,
     0x1.c70d5b687dda8p-1, 0x1.c9b57393f045bp-3, 0x1.c70d5b687ddaap-1,
     0x1.c9b57393f045bp-3, 0x1.c70d5b687dda9p-1, 0x1.c9b57393f0442p-3,
     0x1.c70d5b687dda8p-1, 0x1.c9b57393f0439p-3, 0x1.c70d5b687dda9p-1,
     0x1.c9b57393f045bp-3, 0x1.c70d5b687dda9p-1, 0x1.c9b57393f045bp-3,
     0x1.c70d5b687dda9p-1}};

/// chainGraph() at MaxIterations 500: skipped factors and the periodic
/// refresh.
const BpPin ChainPin = {
    53, 8568, 2394, 0x1.4d3bc88f2p-17,
    {0x1.e666666666666p-1, 0x1.b851eb84a68b9p-1, 0x1.9374bc5e99a78p-1,
     0x1.75f6fca32a9fap-1, 0x1.5e5f2e03467bbp-1, 0x1.4b7f5022f55a7p-1,
     0x1.3c65cacd34948p-1, 0x1.30515bf6049e7p-1, 0x1.26a7655a9b04dp-1,
     0x1.1eec32f2edabap-1, 0x1.18bcd965e2511p-1, 0x1.13ca35d6c3bep-1,
     0x1.0fd4dfcb58356p-1, 0x1.0caa2a6dc165p-1, 0x1.0a21a187a836p-1,
     0x1.081ad247edea5p-1, 0x1.067bb72f69fafp-1, 0x1.052f98b092c9fp-1,
     0x1.0425e17242ce1p-1, 0x1.035154f3f5008p-1, 0x1.02a7613b5a152p-1,
     0x1.021f5a87ffe36p-1, 0x1.01b2794645717p-1, 0x1.015b56f1d8462p-1,
     0x1.0115b95a98ff2p-1, 0x1.00ddfbf6def1dp-1, 0x1.00b15b91926a8p-1,
     0x1.008da1962f6fbp-1, 0x1.007107e4e0af4p-1, 0x1.005a2008dd456p-1,
     0x1.00478a67c3c9ap-1, 0x1.0038e5b2c2d06p-1, 0x1.002d31d8576fp-1,
     0x1.0023d95331344p-1, 0x1.001c6446c68c7p-1, 0x1.0016729245426p-1,
     0x1.001101542109fp-1, 0x1.000c783a890e9p-1, 0x1.0008c12e7f7d2p-1,
     0x1.0005d15038b1ep-1, 0x1.00039dcfad8c8p-1, 0x1.000210e18a668p-1,
     0x1.00007d0891fcbp-1, 0x1p-1, 0x1p-1,
     0x1p-1, 0x1p-1, 0x1p-1,
     0x1p-1, 0x1p-1, 0x1p-1,
     0x1p-1, 0x1p-1, 0x1p-1,
     0x1p-1, 0x1p-1, 0x1p-1,
     0x1p-1, 0x1p-1, 0x1p-1,
     0x1p-1, 0x1p-1, 0x1p-1,
     0x1p-1}};

/// Solves \p G with default options but \p MaxIterations and expects
/// every bit of \p Pin.
void expectPinned(const FactorGraph &G, unsigned MaxIterations,
                  const BpPin &Pin) {
  SumProductSolver::Options Opts;
  Opts.MaxIterations = MaxIterations;
  SolveReport Report;
  const Marginals M = SumProductSolver(Opts).solve(G, nullptr, &Report);
  EXPECT_TRUE(Report.Converged);
  EXPECT_EQ(Report.Iterations, Pin.Iterations);
  EXPECT_EQ(Report.Updates, Pin.Updates);
  EXPECT_EQ(Report.SkippedUpdates, Pin.SkippedUpdates);
  EXPECT_EQ(std::bit_cast<uint64_t>(Report.Residual),
            std::bit_cast<uint64_t>(Pin.Residual))
      << "residual " << std::hexfloat << Report.Residual;
  ASSERT_EQ(M.size(), Pin.Marginals.size());
  for (size_t V = 0; V != M.size(); ++V)
    EXPECT_EQ(std::bit_cast<uint64_t>(M[V]),
              std::bit_cast<uint64_t>(Pin.Marginals[V]))
        << "var " << V << ": " << std::hexfloat << M[V];
}

} // namespace

TEST(BpPinTest, ScheduledKernelsKeepEveryBit) {
  {
    SCOPED_TRACE("randomGraph(3)");
    expectPinned(randomGraph(3), 300, RandomGraphPin);
  }
  {
    SCOPED_TRACE("starGraph()");
    expectPinned(starGraph(), 50, StarPin);
  }
  {
    SCOPED_TRACE("chainGraph()");
    expectPinned(chainGraph(), 500, ChainPin);
  }
}
