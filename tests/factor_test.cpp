//===- factor_test.cpp - Unit tests for the factor-graph engine ------------===//

#include "factor/FactorGraph.h"
#include "factor/Solvers.h"
#include "support/Rng.h"

#include <cmath>
#include <gtest/gtest.h>

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

TEST(FactorGraphTest, VarToFactorsIndex) {
  FactorGraph G;
  VarId A = G.addVariable(0.5), B = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.9);
  G.addFactor({B}, {1.0, 1.0});
  const auto &Index = G.varToFactors();
  EXPECT_EQ(Index[A].size(), 1u);
  EXPECT_EQ(Index[B].size(), 2u);
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
// Gibbs sampling
//===----------------------------------------------------------------------===//

TEST(GibbsTest, MatchesExactOnSmallGraph) {
  FactorGraph G;
  VarId A = G.addVariable(0.8);
  VarId B = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.9);
  Marginals Exact = *ExactSolver().solve(G);
  GibbsSolver::Options Opts;
  Opts.Samples = 8000;
  Opts.BurnIn = 500;
  Marginals Gibbs = GibbsSolver(Opts).solve(G);
  EXPECT_NEAR(Gibbs[A], Exact[A], 0.05);
  EXPECT_NEAR(Gibbs[B], Exact[B], 0.05);
}

TEST(GibbsTest, DeterministicWithSeed) {
  FactorGraph G;
  VarId A = G.addVariable(0.6);
  VarId B = G.addVariable(0.4);
  G.addEqualityFactor(A, B, 0.8);
  Marginals M1 = GibbsSolver().solve(G);
  Marginals M2 = GibbsSolver().solve(G);
  EXPECT_EQ(M1, M2);
}

//===----------------------------------------------------------------------===//
// Logical (deterministic) solving
//===----------------------------------------------------------------------===//

TEST(LogicalSolverTest, CountsSatisfying) {
  FactorGraph G;
  VarId A = G.addVariable(0.5), B = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.95); // Hard when thresholded at 0.5.
  ExactSolver Solver;
  auto Count = Solver.countSatisfying(G, 10);
  ASSERT_TRUE(Count.has_value());
  EXPECT_EQ(*Count, 2u); // FF and TT.
}

TEST(LogicalSolverTest, GivesUpBeyondLimit) {
  FactorGraph G;
  for (int I = 0; I != 30; ++I)
    G.addVariable(0.5);
  EXPECT_FALSE(ExactSolver().countSatisfying(G, 24).has_value());
  EXPECT_FALSE(ExactSolver().solveLogical(G, 24).has_value());
}

TEST(LogicalSolverTest, UnsatisfiableIsDnf) {
  FactorGraph G;
  VarId A = G.addVariable(0.5);
  G.addFactor({A}, {0.0, 1.0}); // Must be true.
  G.addFactor({A}, {1.0, 0.0}); // Must be false.
  EXPECT_FALSE(ExactSolver().solveLogical(G, 10).has_value());
  auto Count = ExactSolver().countSatisfying(G, 10);
  ASSERT_TRUE(Count.has_value());
  EXPECT_EQ(*Count, 0u);
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
