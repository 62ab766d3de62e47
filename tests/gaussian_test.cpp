//===- gaussian_test.cpp - Unit tests for rational Gaussian elimination ----===//

#include "plural/GaussianElim.h"
#include "support/Rng.h"

#include <gtest/gtest.h>
#include <utility>

using namespace anek;

TEST(GaussianTest, TwoByTwo) {
  // x + y = 3; x - y = 1 => x = 2, y = 1.
  LinearSystem S(2);
  S.addEquation({{0, Rational(1)}, {1, Rational(1)}}, Rational(3));
  S.addEquation({{0, Rational(1)}, {1, Rational(-1)}}, Rational(1));
  auto X = std::move(S).solve();
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ((*X)[0], Rational(2));
  EXPECT_EQ((*X)[1], Rational(1));
}

TEST(GaussianTest, RationalPivoting) {
  // (1/2)x = 1/4 => x = 1/2.
  LinearSystem S(1);
  S.addEquation({{0, Rational(1, 2)}}, Rational(1, 4));
  auto X = std::move(S).solve();
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ((*X)[0], Rational(1, 2));
}

TEST(GaussianTest, Inconsistent) {
  LinearSystem S(1);
  S.addEquation({{0, Rational(1)}}, Rational(1));
  S.addEquation({{0, Rational(1)}}, Rational(2));
  EXPECT_FALSE(std::move(S).solve().has_value());
}

TEST(GaussianTest, RedundantRowsOk) {
  LinearSystem S(2);
  S.addEquation({{0, Rational(1)}, {1, Rational(1)}}, Rational(2));
  S.addEquation({{0, Rational(2)}, {1, Rational(2)}}, Rational(4));
  auto X = std::move(S).solve();
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ((*X)[0] + (*X)[1], Rational(2));
}

TEST(GaussianTest, FreeVariablesAreZero) {
  // x + y = 1 with y free => y = 0, x = 1.
  LinearSystem S(2);
  S.addEquation({{0, Rational(1)}, {1, Rational(1)}}, Rational(1));
  auto X = std::move(S).solve();
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ((*X)[1], Rational(0));
  EXPECT_EQ((*X)[0], Rational(1));
}

TEST(GaussianTest, DuplicateTermsCoalesce) {
  // x + x = 4 => x = 2.
  LinearSystem S(1);
  S.addEquation({{0, Rational(1)}, {0, Rational(1)}}, Rational(4));
  auto X = std::move(S).solve();
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ((*X)[0], Rational(2));
}

TEST(GaussianTest, OpsCounterCounts) {
  LinearSystem S(3);
  S.addEquation({{0, Rational(1)}, {1, Rational(2)}}, Rational(5));
  S.addEquation({{1, Rational(1)}, {2, Rational(1)}}, Rational(3));
  S.addEquation({{0, Rational(1)}, {2, Rational(-1)}}, Rational(0));
  uint64_t Ops = 0;
  auto X = std::move(S).solve(&Ops);
  ASSERT_TRUE(X.has_value());
  EXPECT_GT(Ops, 0u);
}

/// Property sweep: random consistent systems solve to genuine solutions.
class GaussianPropertyTest : public testing::TestWithParam<int> {};

TEST_P(GaussianPropertyTest, SolutionSatisfiesSystem) {
  Rng Random(static_cast<uint64_t>(GetParam()) * 31 + 17);
  const unsigned NumVars = 2 + static_cast<unsigned>(Random.below(5));
  const unsigned NumEqs = 1 + static_cast<unsigned>(Random.below(NumVars));

  // Draw a ground-truth assignment and build equations from it, so the
  // system is consistent by construction.
  std::vector<Rational> Truth;
  for (unsigned V = 0; V != NumVars; ++V)
    Truth.push_back(Rational(static_cast<int64_t>(Random.range(0, 8)) - 4,
                             static_cast<int64_t>(Random.range(1, 4))));

  LinearSystem S(NumVars);
  std::vector<std::vector<Rational>> Rows;
  for (unsigned E = 0; E != NumEqs; ++E) {
    std::vector<std::pair<unsigned, Rational>> Terms;
    std::vector<Rational> Row(NumVars, Rational(0));
    Rational Rhs(0);
    for (unsigned V = 0; V != NumVars; ++V) {
      Rational Coeff(static_cast<int64_t>(Random.range(0, 6)) - 3);
      if (Coeff.isZero())
        continue;
      Terms.push_back({V, Coeff});
      Row[V] = Coeff;
      Rhs += Coeff * Truth[V];
    }
    if (Terms.empty())
      continue;
    S.addEquation(Terms, Rhs);
    Rows.push_back(Row);
  }

  auto X = std::move(S).solve();
  ASSERT_TRUE(X.has_value());
  // The returned solution (not necessarily Truth) satisfies every row.
  size_t RowIdx = 0;
  for (const auto &Row : Rows) {
    Rational Lhs(0), Rhs(0);
    for (unsigned V = 0; V != NumVars; ++V) {
      Lhs += Row[V] * (*X)[V];
      Rhs += Row[V] * Truth[V];
    }
    EXPECT_EQ(Lhs, Rhs) << "row " << RowIdx;
    ++RowIdx;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GaussianPropertyTest,
                         testing::Range(0, 30));
