//===- perm_test.cpp - Unit tests for the permission substrate -------------===//

#include "perm/FracPerm.h"
#include "perm/PermKind.h"
#include "perm/Spec.h"
#include "perm/StateSpace.h"

#include <gtest/gtest.h>

using namespace anek;

//===----------------------------------------------------------------------===//
// PermKind
//===----------------------------------------------------------------------===//

TEST(PermKindTest, Names) {
  EXPECT_STREQ(permKindName(PermKind::Unique), "unique");
  EXPECT_STREQ(permKindName(PermKind::Pure), "pure");
  EXPECT_EQ(parsePermKind("full"), PermKind::Full);
  EXPECT_EQ(parsePermKind("immutable"), PermKind::Immutable);
  EXPECT_EQ(parsePermKind("bogus"), std::nullopt);
}

TEST(PermKindTest, WritePredicates) {
  EXPECT_TRUE(allowsWrite(PermKind::Unique));
  EXPECT_TRUE(allowsWrite(PermKind::Full));
  EXPECT_TRUE(allowsWrite(PermKind::Share));
  EXPECT_FALSE(allowsWrite(PermKind::Immutable));
  EXPECT_FALSE(allowsWrite(PermKind::Pure));
  EXPECT_TRUE(othersMayWrite(PermKind::Share));
  EXPECT_TRUE(othersMayWrite(PermKind::Pure));
  EXPECT_FALSE(othersMayWrite(PermKind::Unique));
  EXPECT_FALSE(othersMayWrite(PermKind::Full));
  EXPECT_FALSE(othersMayWrite(PermKind::Immutable));
}

TEST(PermKindTest, Duplicable) {
  EXPECT_FALSE(isDuplicable(PermKind::Unique));
  EXPECT_FALSE(isDuplicable(PermKind::Full));
  EXPECT_TRUE(isDuplicable(PermKind::Immutable));
  EXPECT_TRUE(isDuplicable(PermKind::Share));
  EXPECT_TRUE(isDuplicable(PermKind::Pure));
}

/// Downgrade order sweep over every kind pair (Eq. 2 order).
class DowngradeTest
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(DowngradeTest, OrderMatchesEnum) {
  auto [From, To] = GetParam();
  PermKind F = static_cast<PermKind>(From);
  PermKind T = static_cast<PermKind>(To);
  EXPECT_EQ(canDowngrade(F, T), From <= To);
  // Reflexivity and antisymmetry of the order.
  EXPECT_TRUE(canDowngrade(F, F));
  if (From != To) {
    EXPECT_NE(canDowngrade(F, T), canDowngrade(T, F));
  }
  // stronger/weaker agree with the order.
  EXPECT_EQ(strongerKind(F, T), From <= To ? F : T);
  EXPECT_EQ(weakerKind(F, T), From <= To ? T : F);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, DowngradeTest,
                         testing::Combine(testing::Range(0u, 5u),
                                          testing::Range(0u, 5u)));

/// Residue sweep: every legal lend leaves a residue that could have
/// coexisted with the lent permission.
class ResidueTest
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(ResidueTest, ResidueIsCoherent) {
  auto [Have, Lent] = GetParam();
  PermKind H = static_cast<PermKind>(Have);
  PermKind L = static_cast<PermKind>(Lent);
  if (!canDowngrade(H, L))
    return;
  std::optional<PermKind> R = residueAfterLending(H, L);
  if (!R)
    return; // The whole permission was lent: fine.
  // If the lent side excludes other writers, the residue must not write.
  if (L == PermKind::Unique)
    FAIL() << "lending unique must leave no residue";
  if (L == PermKind::Full || L == PermKind::Immutable) {
    EXPECT_FALSE(allowsWrite(*R))
        << "residue may not write while " << permKindName(L) << " is lent";
  }
  // If the lent side assumes no other writers, the residue must comply.
  if (!othersMayWrite(L) && L != PermKind::Pure) {
    EXPECT_FALSE(allowsWrite(*R));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, ResidueTest,
                         testing::Combine(testing::Range(0u, 5u),
                                          testing::Range(0u, 5u)));

//===----------------------------------------------------------------------===//
// FracPerm: lend / merge properties
//===----------------------------------------------------------------------===//

TEST(FracPermTest, Strings) {
  EXPECT_EQ(FracPerm::whole(PermKind::Full).str(), "full");
  EXPECT_EQ(FracPerm(PermKind::Share, Rational(1, 2)).str(), "share{1/2}");
}

TEST(FracPermTest, LendIllegal) {
  EXPECT_FALSE(lend(FracPerm::whole(PermKind::Pure), PermKind::Full));
  EXPECT_FALSE(lend(FracPerm::whole(PermKind::Share), PermKind::Unique));
  EXPECT_FALSE(
      lend(FracPerm(PermKind::Full, Rational(0)), PermKind::Full));
}

TEST(FracPermTest, LendDuplicableHalves) {
  auto R = lend(FracPerm::whole(PermKind::Share), PermKind::Share);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Lent, FracPerm(PermKind::Share, Rational(1, 2)));
  ASSERT_TRUE(R->Residue.has_value());
  EXPECT_EQ(*R->Residue, FracPerm(PermKind::Share, Rational(1, 2)));
}

TEST(FracPermTest, LendUniqueWholly) {
  auto R = lend(FracPerm::whole(PermKind::Unique), PermKind::Unique);
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->Residue.has_value());
}

/// Borrow round trip: if the callee returns what it borrowed, the caller
/// gets the original permission back — for every legal (have, lent) pair.
class BorrowRoundTripTest
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(BorrowRoundTripTest, RestoresOriginal) {
  auto [Have, Need] = GetParam();
  PermKind H = static_cast<PermKind>(Have);
  PermKind N = static_cast<PermKind>(Need);
  if (!canDowngrade(H, N))
    return;
  FracPerm Original = FracPerm::whole(H);
  auto L = lend(Original, N);
  ASSERT_TRUE(L.has_value());
  FracPerm After =
      mergeAfterCall(Original, N, FracPerm::whole(N), L->Residue);
  EXPECT_EQ(After, Original);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, BorrowRoundTripTest,
                         testing::Combine(testing::Range(0u, 5u),
                                          testing::Range(0u, 5u)));

TEST(FracPermTest, ConsumingCalleeWeakens) {
  // Callee borrows full out of unique but only returns pure.
  FracPerm Original = FracPerm::whole(PermKind::Unique);
  auto L = lend(Original, PermKind::Full);
  ASSERT_TRUE(L.has_value());
  FracPerm After = mergeAfterCall(Original, PermKind::Full,
                                  FracPerm::whole(PermKind::Pure),
                                  L->Residue);
  EXPECT_NE(After.Kind, PermKind::Unique);
}

TEST(FracPermTest, JoinIsWeaker) {
  FracPerm A = FracPerm::whole(PermKind::Unique);
  FracPerm B = FracPerm(PermKind::Share, Rational(1, 2));
  FracPerm J = joinPerms(A, B);
  EXPECT_EQ(J.Kind, PermKind::Share);
  EXPECT_EQ(J.Frac, Rational(1, 2));
}

//===----------------------------------------------------------------------===//
// StateSpace
//===----------------------------------------------------------------------===//

TEST(StateSpaceTest, AliveRoot) {
  StateSpace S;
  EXPECT_EQ(S.size(), 1u);
  EXPECT_EQ(S.name(StateSpace::AliveId), "ALIVE");
  EXPECT_TRUE(S.refines(StateSpace::AliveId, StateSpace::AliveId));
}

TEST(StateSpaceTest, FlatHierarchy) {
  StateSpace S;
  StateId HasNext = S.addState("HASNEXT");
  StateId End = S.addState("END");
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.refines(HasNext, StateSpace::AliveId));
  EXPECT_TRUE(S.refines(End, StateSpace::AliveId));
  EXPECT_FALSE(S.refines(HasNext, End));
  EXPECT_FALSE(S.refines(StateSpace::AliveId, HasNext));
}

TEST(StateSpaceTest, NestedHierarchy) {
  StateSpace S;
  StateId Open = S.addState("OPEN");
  StateId Eof = S.addState("EOF", Open);
  EXPECT_TRUE(S.refines(Eof, Open));
  EXPECT_TRUE(S.refines(Eof, StateSpace::AliveId));
  EXPECT_FALSE(S.refines(Open, Eof));
}

TEST(StateSpaceTest, DuplicateAdd) {
  StateSpace S;
  StateId A = S.addState("A");
  EXPECT_EQ(S.addState("A"), A);
  EXPECT_EQ(S.size(), 2u);
}

TEST(StateSpaceTest, Find) {
  StateSpace S;
  S.addState("OPEN");
  EXPECT_TRUE(S.find("OPEN").has_value());
  EXPECT_TRUE(S.find("ALIVE").has_value());
  EXPECT_FALSE(S.find("MISSING").has_value());
}

//===----------------------------------------------------------------------===//
// Spec parsing and printing
//===----------------------------------------------------------------------===//

TEST(SpecTest, ParseAtoms) {
  std::string Error;
  auto Atoms =
      parseSpecAtoms("full(this) in HASNEXT * pure(x)", {"x"}, Error);
  ASSERT_TRUE(Atoms.has_value()) << Error;
  ASSERT_EQ(Atoms->size(), 2u);
  EXPECT_EQ((*Atoms)[0].Kind, PermKind::Full);
  EXPECT_EQ((*Atoms)[0].Target, SpecTarget::receiver());
  EXPECT_EQ((*Atoms)[0].State, "HASNEXT");
  EXPECT_EQ((*Atoms)[1].Kind, PermKind::Pure);
  EXPECT_EQ((*Atoms)[1].Target, SpecTarget::param(0));
}

TEST(SpecTest, ParseCommaSeparator) {
  std::string Error;
  auto Atoms = parseSpecAtoms("pure(this), unique(result)", {}, Error);
  ASSERT_TRUE(Atoms.has_value()) << Error;
  EXPECT_EQ(Atoms->size(), 2u);
  EXPECT_EQ((*Atoms)[1].Target, SpecTarget::result());
}

TEST(SpecTest, AliveNormalizesToEmpty) {
  std::string Error;
  auto Atoms = parseSpecAtoms("unique(result) in ALIVE", {}, Error);
  ASSERT_TRUE(Atoms.has_value());
  EXPECT_TRUE((*Atoms)[0].State.empty());
}

TEST(SpecTest, ParseIndexTarget) {
  std::string Error;
  auto Atoms = parseSpecAtoms("share(#1)", {"a", "b"}, Error);
  ASSERT_TRUE(Atoms.has_value());
  EXPECT_EQ((*Atoms)[0].Target, SpecTarget::param(1));
}

TEST(SpecTest, ParseErrors) {
  std::string Error;
  EXPECT_FALSE(parseSpecAtoms("bogus(this)", {}, Error).has_value());
  EXPECT_FALSE(parseSpecAtoms("full(nosuch)", {"x"}, Error).has_value());
  EXPECT_FALSE(parseSpecAtoms("full(this) foo", {}, Error).has_value());
  EXPECT_FALSE(parseSpecAtoms("full(this) in", {}, Error).has_value());
  EXPECT_FALSE(parseSpecAtoms("full this", {}, Error).has_value());
}

TEST(SpecTest, EmptyStringIsEmptyList) {
  std::string Error;
  auto Atoms = parseSpecAtoms("", {}, Error);
  ASSERT_TRUE(Atoms.has_value());
  EXPECT_TRUE(Atoms->empty());
}

TEST(SpecTest, BuildMethodSpec) {
  std::string Error;
  auto Req = parseSpecAtoms("full(this) in HASNEXT", {}, Error);
  auto Ens = parseSpecAtoms("full(this) * unique(result)", {}, Error);
  auto Spec = buildMethodSpec(*Req, *Ens, 0, Error);
  ASSERT_TRUE(Spec.has_value()) << Error;
  ASSERT_TRUE(Spec->ReceiverPre.has_value());
  EXPECT_EQ(Spec->ReceiverPre->Kind, PermKind::Full);
  EXPECT_EQ(Spec->ReceiverPre->State, "HASNEXT");
  ASSERT_TRUE(Spec->Result.has_value());
  EXPECT_EQ(Spec->Result->Kind, PermKind::Unique);
  EXPECT_EQ(Spec->atomCount(), 3u);
  EXPECT_FALSE(Spec->isEmpty());
}

TEST(SpecTest, ResultInRequiresRejected) {
  std::string Error;
  auto Req = parseSpecAtoms("unique(result)", {}, Error);
  ASSERT_TRUE(Req.has_value());
  EXPECT_FALSE(buildMethodSpec(*Req, {}, 0, Error).has_value());
}

TEST(SpecTest, DuplicateTargetRejected) {
  std::string Error;
  auto Req = parseSpecAtoms("full(this) * pure(this)", {}, Error);
  ASSERT_TRUE(Req.has_value());
  EXPECT_FALSE(buildMethodSpec(*Req, {}, 0, Error).has_value());
}

TEST(SpecTest, PrintRoundTrip) {
  std::string Error;
  std::vector<std::string> Params = {"it"};
  auto Req = parseSpecAtoms("full(it) in HASNEXT", Params, Error);
  auto Ens = parseSpecAtoms("full(it) * unique(result)", Params, Error);
  auto Spec = buildMethodSpec(*Req, *Ens, 1, Error);
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(printSpecSide(*Spec, true, Params), "full(it) in HASNEXT");
  EXPECT_EQ(printSpecSide(*Spec, false, Params),
            "full(it) * unique(result)");
  // Parse the printed sides again: fixpoint.
  auto Req2 = parseSpecAtoms(printSpecSide(*Spec, true, Params), Params,
                             Error);
  auto Ens2 = parseSpecAtoms(printSpecSide(*Spec, false, Params), Params,
                             Error);
  auto Spec2 = buildMethodSpec(*Req2, *Ens2, 1, Error);
  ASSERT_TRUE(Spec2.has_value());
  EXPECT_EQ(*Spec, *Spec2);
}

TEST(SpecTest, EmptySpec) {
  MethodSpec Spec;
  EXPECT_TRUE(Spec.isEmpty());
  EXPECT_EQ(Spec.atomCount(), 0u);
  Spec.TrueIndicates = "OPEN";
  EXPECT_FALSE(Spec.isEmpty());
}

TEST(SpecTest, PrintPermState) {
  EXPECT_EQ(printPermState({PermKind::Full, "OPEN"}), "full in OPEN");
  EXPECT_EQ(printPermState({PermKind::Pure, ""}), "pure");
}
