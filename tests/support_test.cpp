//===- support_test.cpp - Unit tests for the support library ---------------===//

#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/Rational.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

using namespace anek;

//===----------------------------------------------------------------------===//
// Format
//===----------------------------------------------------------------------===//

TEST(FormatTest, Basic) {
  EXPECT_EQ(formatStr("x=%d", 42), "x=42");
  EXPECT_EQ(formatStr("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(formatStr("%.2f", 1.5), "1.50");
}

TEST(FormatTest, Empty) { EXPECT_EQ(formatStr("%s", ""), ""); }

TEST(FormatTest, LongOutput) {
  std::string Long(500, 'x');
  EXPECT_EQ(formatStr("%s", Long.c_str()).size(), 500u);
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
  EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("createIter", "create"));
  EXPECT_FALSE(startsWith("recreate", "create"));
  EXPECT_TRUE(endsWith("foo.mjava", ".mjava"));
  EXPECT_FALSE(endsWith("x", "xyz"));
  EXPECT_TRUE(startsWith("", ""));
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n x"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtilsTest, SplitAndTrim) {
  auto Parts = splitAndTrim(" a , b ,, c ", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "b");
  EXPECT_EQ(Parts[2], "c");
  EXPECT_TRUE(splitAndTrim("", '*').empty());
  EXPECT_TRUE(splitAndTrim("  ", '*').empty());
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({"a", "b"}, " * "), "a * b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

//===----------------------------------------------------------------------===//
// Rational (with property-style parameterized sweeps)
//===----------------------------------------------------------------------===//

TEST(RationalTest, Normalization) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
  EXPECT_EQ(Rational(0, 7), Rational(0));
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 2), Rational(0));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(RationalTest, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
  EXPECT_GE(Rational(3, 3), Rational(1));
  EXPECT_LE(Rational(1, 2), Rational(1, 2));
}

TEST(RationalTest, Strings) {
  EXPECT_EQ(Rational(1, 2).str(), "1/2");
  EXPECT_EQ(Rational(4, 2).str(), "2");
  EXPECT_EQ(Rational(-1, 3).str(), "-1/3");
}

/// Property sweep: field laws over a small grid of rationals.
class RationalLawsTest : public testing::TestWithParam<int> {};

TEST_P(RationalLawsTest, FieldLaws) {
  int Seed = GetParam();
  Rng Random(static_cast<uint64_t>(Seed));
  auto Draw = [&]() {
    int64_t Num = static_cast<int64_t>(Random.range(0, 20)) - 10;
    int64_t Den = static_cast<int64_t>(Random.range(1, 10));
    return Rational(Num, Den);
  };
  Rational A = Draw(), B = Draw(), C = Draw();
  // Commutativity and associativity.
  EXPECT_EQ(A + B, B + A);
  EXPECT_EQ(A * B, B * A);
  EXPECT_EQ((A + B) + C, A + (B + C));
  EXPECT_EQ((A * B) * C, A * (B * C));
  // Distributivity.
  EXPECT_EQ(A * (B + C), A * B + A * C);
  // Identity and inverse.
  EXPECT_EQ(A + Rational(0), A);
  EXPECT_EQ(A * Rational(1), A);
  EXPECT_EQ(A - A, Rational(0));
  if (!B.isZero()) {
    EXPECT_EQ(A / B * B, A);
  }
  // toDouble consistency with ordering.
  if (A < B) {
    EXPECT_LT(A.toDouble(), B.toDouble());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RationalLawsTest, testing::Range(0, 25));

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, RangeBounds) {
  Rng Random(7);
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = Random.range(3, 9);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 9u);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng Random(9);
  double Sum = 0;
  for (int I = 0; I != 10000; ++I) {
    double U = Random.uniform();
    ASSERT_GE(U, 0.0);
    ASSERT_LT(U, 1.0);
    Sum += U;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, Counting) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLocation(1, 2), "w");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLocation(3, 4), "e");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.warningCount(), 1u);
  EXPECT_NE(Diags.str().find("3:4: error: e"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.all().empty());
}

TEST(DiagnosticsTest, InvalidLocation) {
  Diagnostic D{DiagKind::Note, SourceLocation(), "n"};
  EXPECT_EQ(D.str(), "<unknown>: note: n");
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

TEST(TimerTest, MonotoneNonNegative) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(A, 0.0);
  EXPECT_GE(B, A);
  T.reset();
  EXPECT_GE(T.millis(), 0.0);
}
