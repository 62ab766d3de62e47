//===- factor_test.cpp - Unit tests for the factor-graph engine ------------===//

#include "factor/FactorGraph.h"
#include "factor/Solvers.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <optional>

using namespace anek;

TEST(FactorGraphTest, PriorsAndClamping) {
  FactorGraph G;
  VarId A = G.addVariable(0.3);
  EXPECT_DOUBLE_EQ(G.variable(A).Prior, 0.3);
  VarId B = G.addVariable(0.0);
  EXPECT_GT(G.variable(B).Prior, 0.0);
  G.setPrior(B, 1.0);
  EXPECT_LT(G.variable(B).Prior, 1.0);
  EXPECT_EQ(G.variableCount(), 2u);
}

TEST(FactorGraphTest, PredicateFactorTable) {
  FactorGraph G;
  VarId A = G.addVariable(0.5), B = G.addVariable(0.5);
  G.addPredicateFactor(
      {A, B}, [](const std::vector<bool> &X) { return X[0] == X[1]; },
      0.9);
  ASSERT_EQ(G.factorCount(), 1u);
  const auto &F = G.factor(0);
  ASSERT_EQ(F.Table.size(), 4u);
  EXPECT_DOUBLE_EQ(F.Table[0], 0.9);  // FF: equal.
  EXPECT_NEAR(F.Table[1], 0.1, 1e-12); // TF.
  EXPECT_NEAR(F.Table[2], 0.1, 1e-12); // FT.
  EXPECT_DOUBLE_EQ(F.Table[3], 0.9);  // TT.
}

TEST(FactorGraphTest, JointWeight) {
  FactorGraph G;
  VarId A = G.addVariable(0.8);
  G.addFactor({A}, {1.0, 2.0});
  EXPECT_NEAR(G.jointWeight({true}), 0.8 * 2.0, 1e-12);
  EXPECT_NEAR(G.jointWeight({false}), 0.2 * 1.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Exact solver
//===----------------------------------------------------------------------===//

TEST(ExactSolverTest, SingleVariable) {
  FactorGraph G;
  G.addVariable(0.7);
  Marginals M = *ExactSolver().solve(G);
  EXPECT_NEAR(M[0], 0.7, 1e-12);
}

TEST(ExactSolverTest, EqualityPullsTogether) {
  FactorGraph G;
  VarId A = G.addVariable(0.9);
  VarId B = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.95);
  Marginals M = *ExactSolver().solve(G);
  EXPECT_GT(M[B], 0.8);
}

TEST(ExactSolverTest, HardContradictionBalances) {
  FactorGraph G;
  VarId A = G.addVariable(0.5);
  // One factor demands true, an equally strong one demands false.
  G.addFactor({A}, {0.1, 0.9});
  G.addFactor({A}, {0.9, 0.1});
  Marginals M = *ExactSolver().solve(G);
  EXPECT_NEAR(M[A], 0.5, 1e-9);
}

//===----------------------------------------------------------------------===//
// Belief propagation vs exact
//===----------------------------------------------------------------------===//

TEST(SumProductTest, ExactOnChain) {
  // A chain (tree): BP must match exact marginals closely.
  FactorGraph G;
  VarId A = G.addVariable(0.9);
  VarId B = G.addVariable(0.5);
  VarId C = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.9);
  G.addEqualityFactor(B, C, 0.9);
  Marginals Exact = *ExactSolver().solve(G);
  Marginals Bp = SumProductSolver().solve(G);
  for (unsigned V = 0; V != 3; ++V)
    EXPECT_NEAR(Bp[V], Exact[V], 1e-3) << "var " << V;
}

TEST(SumProductTest, EmptyGraph) {
  FactorGraph G;
  EXPECT_TRUE(SumProductSolver().solve(G).empty());
}

TEST(SumProductTest, DisconnectedVariableKeepsPrior) {
  FactorGraph G;
  G.addVariable(0.42);
  Marginals M = SumProductSolver().solve(G);
  EXPECT_NEAR(M[0], 0.42, 1e-9);
}

/// Random small loopy graphs: BP approximates exact marginals.
class BpVsExactTest : public testing::TestWithParam<int> {};

TEST_P(BpVsExactTest, CloseToExact) {
  Rng Random(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  FactorGraph G;
  const unsigned NumVars = 6;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.2 + 0.6 * Random.uniform());
  // Random pairwise soft constraints (some loops).
  for (unsigned F = 0; F != 7; ++F) {
    VarId A = static_cast<VarId>(Random.below(NumVars));
    VarId B = static_cast<VarId>(Random.below(NumVars));
    if (A == B)
      continue;
    double H = 0.7 + 0.25 * Random.uniform();
    if (Random.flip(0.5))
      G.addEqualityFactor(A, B, H);
    else
      G.addPredicateFactor(
          {A, B}, [](const std::vector<bool> &X) { return X[0] || X[1]; },
          H);
  }
  Marginals Exact = *ExactSolver().solve(G);
  Marginals Bp = SumProductSolver().solve(G);
  for (unsigned V = 0; V != NumVars; ++V)
    EXPECT_NEAR(Bp[V], Exact[V], 0.2) << "var " << V;
  // Decisions (above/below 0.5) should nearly always agree when the
  // marginal is not borderline.
  for (unsigned V = 0; V != NumVars; ++V) {
    if (std::fabs(Exact[V] - 0.5) > 0.15) {
      EXPECT_EQ(Bp[V] > 0.5, Exact[V] > 0.5) << "var " << V;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpVsExactTest, testing::Range(0, 20));

TEST(SumProductTest, ConvergesOnLoop) {
  // A frustrated 3-cycle of inequality factors still converges thanks to
  // damping.
  FactorGraph G;
  VarId A = G.addVariable(0.5), B = G.addVariable(0.5),
        C = G.addVariable(0.5);
  auto NotEqual = [](const std::vector<bool> &X) { return X[0] != X[1]; };
  G.addPredicateFactor({A, B}, NotEqual, 0.9);
  G.addPredicateFactor({B, C}, NotEqual, 0.9);
  G.addPredicateFactor({C, A}, NotEqual, 0.9);
  SumProductSolver Solver;
  Marginals M = Solver.solve(G);
  ASSERT_EQ(M.size(), 3u);
  for (double P : M) {
    EXPECT_GE(P, 0.0);
    EXPECT_LE(P, 1.0);
  }
}

//===----------------------------------------------------------------------===//
// Logical (deterministic) solving
//===----------------------------------------------------------------------===//

TEST(LogicalSolverTest, GivesUpBeyondLimit) {
  FactorGraph G;
  for (int I = 0; I != 30; ++I)
    G.addVariable(0.5);
  EXPECT_FALSE(ExactSolver().solveLogical(G, 24).has_value());
}

TEST(LogicalSolverTest, UnsatisfiableIsDnf) {
  FactorGraph G;
  VarId A = G.addVariable(0.5);
  G.addFactor({A}, {0.0, 1.0}); // Must be true.
  G.addFactor({A}, {1.0, 0.0}); // Must be false.
  EXPECT_FALSE(ExactSolver().solveLogical(G, 10).has_value());
}

TEST(LogicalSolverTest, MarginalsOverModels) {
  FactorGraph G;
  VarId A = G.addVariable(0.5), B = G.addVariable(0.5);
  // A must be true; B unconstrained.
  G.addFactor({A}, {0.0, 1.0});
  auto M = ExactSolver().solveLogical(G, 10);
  ASSERT_TRUE(M.has_value());
  EXPECT_DOUBLE_EQ((*M)[A], 1.0);
  EXPECT_DOUBLE_EQ((*M)[B], 0.5);
}

//===----------------------------------------------------------------------===//
// Exact enumeration
//===----------------------------------------------------------------------===//

namespace {

/// Random factor graph with mixed arities 1..4 (unary evidence, pairwise
/// equalities, and general tables).
FactorGraph makeRandomGraph(unsigned NumVars, unsigned NumFactors,
                            uint64_t Seed) {
  Rng Random(Seed);
  FactorGraph G;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.05 + 0.9 * Random.uniform());
  for (unsigned F = 0; F != NumFactors; ++F) {
    unsigned Arity =
        std::min<unsigned>(1 + static_cast<unsigned>(Random.below(4)),
                           NumVars);
    std::vector<VarId> Scope;
    while (Scope.size() != Arity) {
      VarId V = static_cast<VarId>(Random.below(NumVars));
      if (std::find(Scope.begin(), Scope.end(), V) == Scope.end())
        Scope.push_back(V);
    }
    std::vector<double> Table(size_t{1} << Arity);
    for (double &W : Table)
      W = 0.05 + Random.uniform();
    G.addFactor(std::move(Scope), std::move(Table));
  }
  return G;
}

/// Hard-constraint graph for the logical enumeration: every table entry
/// is decisively above or below the 0.5 threshold.
FactorGraph makeLogicalGraph(unsigned NumVars, unsigned NumFactors,
                             uint64_t Seed, double SatBias) {
  Rng Random(Seed);
  FactorGraph G;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.5);
  for (unsigned F = 0; F != NumFactors; ++F) {
    unsigned Arity =
        std::min<unsigned>(1 + static_cast<unsigned>(Random.below(4)),
                           NumVars);
    std::vector<VarId> Scope;
    while (Scope.size() != Arity) {
      VarId V = static_cast<VarId>(Random.below(NumVars));
      if (std::find(Scope.begin(), Scope.end(), V) == Scope.end())
        Scope.push_back(V);
    }
    std::vector<double> Table(size_t{1} << Arity);
    for (double &W : Table)
      W = Random.uniform() < SatBias ? 0.9 : 0.1;
    G.addFactor(std::move(Scope), std::move(Table));
  }
  return G;
}

/// Brute-force satisfying-assignment count and per-variable true counts,
/// straight off the factor tables — the independent reference for the
/// logical enumeration.
uint64_t bruteCount(const FactorGraph &G, double Threshold,
                    std::vector<uint64_t> *TrueCounts = nullptr) {
  const unsigned NumVars = G.variableCount();
  uint64_t Satisfying = 0;
  for (uint64_t Index = 0; Index != (uint64_t{1} << NumVars); ++Index) {
    bool Ok = true;
    for (uint32_t F = 0; F != G.factorCount() && Ok; ++F) {
      const FactorGraph::Factor &Factor = G.factor(F);
      size_t TableIndex = 0;
      for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit)
        if ((Index >> Factor.Scope[Bit]) & 1)
          TableIndex |= size_t{1} << Bit;
      Ok = Factor.Table[TableIndex] > Threshold;
    }
    if (!Ok)
      continue;
    ++Satisfying;
    if (TrueCounts)
      for (unsigned V = 0; V != NumVars; ++V)
        if ((Index >> V) & 1)
          ++(*TrueCounts)[V];
  }
  return Satisfying;
}

} // namespace

TEST(ExactEnumeration, LogicalMarginalsMatchBruteForce) {
  ExactSolver Exact;
  for (unsigned NumVars : {3u, 5u, 6u, 7u, 10u, 13u}) {
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      FactorGraph G = makeLogicalGraph(NumVars, NumVars + 3,
                                       Seed * 131 + NumVars, 0.75);
      std::vector<uint64_t> Expected(NumVars, 0);
      const uint64_t Count = bruteCount(G, 0.5, &Expected);

      std::optional<Marginals> Logical = Exact.solveLogical(G, 62);
      if (Count == 0) {
        EXPECT_FALSE(Logical.has_value()) << NumVars << "/" << Seed;
        continue;
      }
      ASSERT_TRUE(Logical.has_value()) << NumVars << "/" << Seed;
      ASSERT_EQ(Logical->size(), NumVars);
      for (unsigned V = 0; V != NumVars; ++V)
        EXPECT_EQ((*Logical)[V], static_cast<double>(Expected[V]) /
                                     static_cast<double>(Count))
            << NumVars << "/" << Seed << " var " << V;
    }
  }
}

TEST(ExactEnumeration, LimitsAndUnsat) {
  ExactSolver Exact;
  FactorGraph G = makeLogicalGraph(10, 12, 17, 0.8);

  // DNF on the variable limit.
  EXPECT_FALSE(Exact.solveLogical(G, 9).has_value());

  // Unsatisfiable: a variable forced both true and false. The logical
  // marginals are a DNF (division by the solution count is
  // meaningless).
  FactorGraph Unsat;
  for (unsigned V = 0; V != 8; ++V)
    Unsat.addVariable(0.5);
  Unsat.addFactor({0}, {0.1, 0.9}); // X0 must be true.
  Unsat.addFactor({0}, {0.9, 0.1}); // X0 must be false.
  EXPECT_FALSE(Exact.solveLogical(Unsat, 62).has_value());
}

TEST(ExactEnumeration, WeightedSolveMatchesJointWeight) {
  // ExactSolver::solve accumulates weighted mass in the same
  // multiplication and summation order as jointWeight over ascending
  // assignment indices — so the comparison is exact, not approximate.
  ExactSolver Exact;
  for (uint64_t Seed : {4u, 9u}) {
    FactorGraph G = makeRandomGraph(9, 14, Seed);
    Expected<Marginals> Got = Exact.solve(G);
    ASSERT_TRUE(Got.hasValue());

    const unsigned NumVars = G.variableCount();
    std::vector<double> TrueMass(NumVars, 0.0);
    double Total = 0.0;
    std::vector<bool> Assign(NumVars);
    for (uint64_t Index = 0; Index != (uint64_t{1} << NumVars); ++Index) {
      for (unsigned V = 0; V != NumVars; ++V)
        Assign[V] = (Index >> V) & 1;
      const double W = G.jointWeight(Assign);
      Total += W;
      for (unsigned V = 0; V != NumVars; ++V)
        if (Assign[V])
          TrueMass[V] += W;
    }
    for (unsigned V = 0; V != NumVars; ++V)
      EXPECT_EQ((*Got)[V], TrueMass[V] / Total) << Seed << "/" << V;
  }
}
