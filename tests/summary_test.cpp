//===- summary_test.cpp - Unit tests for probabilistic summaries -----------===//

#include "infer/Summary.h"
#include "infer/SummaryIO.h"
#include "lang/Sema.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <map>

using namespace anek;

TEST(OddsTest, RoundTrip) {
  for (double P : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(oddsToProb(probToOdds(P)), P, 1e-9);
  }
  EXPECT_DOUBLE_EQ(probToOdds(0.5), 1.0);
  EXPECT_GT(probToOdds(0.9), 1.0);
  EXPECT_LT(probToOdds(0.1), 1.0);
}

namespace {

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

} // namespace

TEST(TargetSummaryTest, NeutralByDefault) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  EXPECT_EQ(T.size(), NumPermKinds + 1); // Kinds + ALIVE.
  for (double P : T.pooled())
    EXPECT_NEAR(P, 0.5, 1e-9);
}

TEST(TargetSummaryTest, DeclaredPrior) {
  auto Prog = analyze("@States({\"OPEN\"}) class A { }");
  TargetSummary T(Prog->findType("A"));
  T.setDeclaredPrior(PermState{PermKind::Full, "OPEN"}, 0.9, 0.1);
  std::vector<double> P = T.pooled();
  EXPECT_NEAR(P[static_cast<unsigned>(PermKind::Full)], 0.9, 1e-9);
  EXPECT_NEAR(P[static_cast<unsigned>(PermKind::Unique)], 0.1, 1e-9);
  // States: [ALIVE, OPEN]; OPEN named.
  EXPECT_NEAR(P[NumPermKinds + 1], 0.9, 1e-9);
  EXPECT_NEAR(P[NumPermKinds + 0], 0.1, 1e-9);
}

TEST(TargetSummaryTest, EmptyStateMeansAlive) {
  auto Prog = analyze("@States({\"OPEN\"}) class A { }");
  TargetSummary T(Prog->findType("A"));
  T.setDeclaredPrior(PermState{PermKind::Pure, ""}, 0.9, 0.1);
  std::vector<double> P = T.pooled();
  EXPECT_NEAR(P[NumPermKinds + 0], 0.9, 1e-9); // ALIVE high.
  EXPECT_NEAR(P[NumPermKinds + 1], 0.1, 1e-9); // OPEN low.
}

TEST(TargetSummaryTest, OddsPooling) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  // Two independent sources both vote 3:1 for unique: pooled odds 9:1.
  std::vector<double> Odds(T.size(), 1.0);
  Odds[0] = 3.0;
  T.setSelfOdds(Odds);
  T.setSiteOdds({nullptr, 0}, Odds);
  EXPECT_NEAR(T.pooled()[0], 0.9, 1e-9);
}

TEST(TargetSummaryTest, CavityExcludesOneSource) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  std::vector<double> Odds(T.size(), 1.0);
  Odds[0] = 9.0;
  T.setSelfOdds(Odds);
  T.setSiteOdds({nullptr, 1}, Odds);
  // Full pool: odds 81 -> ~0.988.
  EXPECT_GT(T.pooled()[0], 0.98);
  // Without self: only the site's 9.
  EXPECT_NEAR(T.pooledWithoutSelf()[0], 0.9, 1e-9);
  // Without the site: only self.
  EXPECT_NEAR(T.pooledWithoutSite({nullptr, 1})[0], 0.9, 1e-9);
  // Excluding a different site changes nothing.
  EXPECT_GT(T.pooledWithoutSite({nullptr, 2})[0], 0.98);
}

TEST(TargetSummaryTest, SetOddsReportsDelta) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  std::vector<double> Odds(T.size(), 1.0);
  Odds[0] = 9.0;
  double Delta = T.setSelfOdds(Odds);
  EXPECT_NEAR(Delta, 0.4, 1e-9); // 0.5 -> 0.9.
  // Re-setting the same evidence changes nothing.
  EXPECT_NEAR(T.setSelfOdds(Odds), 0.0, 1e-9);
}

TEST(TargetSummaryTest, ConflictingVotesMajorityWins) {
  // The paper's createColIter story in miniature: one site votes for
  // HASNEXT, two vote against; pooled probability ends low.
  auto Prog = analyze("@States({\"HASNEXT\"}) class It { }");
  TargetSummary T(Prog->findType("It"));
  size_t HasNextIdx = NumPermKinds + 1;
  std::vector<double> For(T.size(), 1.0), Against(T.size(), 1.0);
  For[HasNextIdx] = 9.0;
  Against[HasNextIdx] = 1.0 / 9.0;
  T.setSiteOdds({nullptr, 0}, For);
  T.setSiteOdds({nullptr, 1}, Against);
  T.setSiteOdds({nullptr, 2}, Against);
  EXPECT_LT(T.pooled()[HasNextIdx], 0.2);
}

//===----------------------------------------------------------------------===//
// MethodSummary and extraction
//===----------------------------------------------------------------------===//

TEST(MethodSummaryTest, SkeletonForMethod) {
  auto Prog = analyze(R"mj(
class A {
  @Perm(requires="full(this)", ensures="full(this) * unique(result)")
  A m(A p, int k) { return p; }
}
)mj");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 2);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  ASSERT_TRUE(S.RecvPre.has_value());
  ASSERT_TRUE(S.ParamPre[0].has_value());
  EXPECT_FALSE(S.ParamPre[1].has_value()); // int param.
  ASSERT_TRUE(S.Result.has_value());
  EXPECT_NEAR(S.RecvPre->pooled()[static_cast<unsigned>(PermKind::Full)],
              0.9, 1e-9);
  EXPECT_NEAR(S.Result->pooled()[static_cast<unsigned>(PermKind::Unique)],
              0.9, 1e-9);
}

TEST(MethodSummaryTest, StaticMethodHasNoReceiver) {
  auto Prog = analyze("class A { static int m() { return 1; } }");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 0);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  EXPECT_FALSE(S.RecvPre.has_value());
  EXPECT_FALSE(S.Result.has_value()); // int result.
}

TEST(MethodSummaryTest, CtorResultIsReceiverPost) {
  auto Prog = analyze(R"mj(
class A {
  @Perm(ensures="unique(this)")
  A(int x) { }
}
)mj");
  MethodDecl *Ctor = Prog->findType("A")->Methods[0].get();
  ASSERT_TRUE(Ctor->IsCtor);
  MethodSummary S = MethodSummary::forMethod(*Ctor, 0.9, 0.1);
  ASSERT_TRUE(S.Result.has_value());
  EXPECT_NEAR(S.Result->pooled()[static_cast<unsigned>(PermKind::Unique)],
              0.9, 1e-9);
}

TEST(ExtractTest, ThresholdGates) {
  std::vector<double> P = {0.65, 0.5, 0.5, 0.5, 0.5};
  EXPECT_FALSE(extractPermState(P, {}, 0.7).has_value());
  P[0] = 0.75;
  auto PS = extractPermState(P, {}, 0.7);
  ASSERT_TRUE(PS.has_value());
  EXPECT_EQ(PS->Kind, PermKind::Unique);
}

TEST(ExtractTest, ArgmaxKindAndState) {
  std::vector<double> P = {0.2, 0.9, 0.2, 0.3, 0.8,
                           /*ALIVE*/ 0.3, /*HASNEXT*/ 0.85};
  auto PS = extractPermState(P, {"ALIVE", "HASNEXT"}, 0.7);
  ASSERT_TRUE(PS.has_value());
  EXPECT_EQ(PS->Kind, PermKind::Full);
  EXPECT_EQ(PS->State, "HASNEXT");
}

TEST(ExtractTest, AliveWinnerMeansNoStateAtom) {
  std::vector<double> P = {0.2, 0.9, 0.2, 0.3, 0.8,
                           /*ALIVE*/ 0.95, /*HASNEXT*/ 0.2};
  auto PS = extractPermState(P, {"ALIVE", "HASNEXT"}, 0.7);
  ASSERT_TRUE(PS.has_value());
  EXPECT_TRUE(PS->State.empty());
}

TEST(ExtractTest, PreferUniqueForResults) {
  std::vector<double> P = {0.85, 0.9, 0.1, 0.1, 0.1};
  auto Plain = extractPermState(P, {}, 0.7, /*PreferUnique=*/false);
  ASSERT_TRUE(Plain.has_value());
  EXPECT_EQ(Plain->Kind, PermKind::Full);
  auto Pref = extractPermState(P, {}, 0.7, /*PreferUnique=*/true);
  ASSERT_TRUE(Pref.has_value());
  EXPECT_EQ(Pref->Kind, PermKind::Unique);
  // A decisive full lead is respected even with the preference.
  P[0] = 0.72;
  auto Decisive = extractPermState(P, {}, 0.7, /*PreferUnique=*/true);
  EXPECT_EQ(Decisive->Kind, PermKind::Full);
}

TEST(ExtractTest, SpecFromSummary) {
  auto Prog = analyze("class A { A m(A p) { return p; } }");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 1);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  std::vector<double> Odds(S.ParamPre[0]->size(), 1.0);
  Odds[static_cast<unsigned>(PermKind::Share)] = 9.0;
  S.ParamPre[0]->setSelfOdds(Odds);
  MethodSpec Spec = extractSpec(S, 1, 0.7);
  ASSERT_TRUE(Spec.ParamPre[0].has_value());
  EXPECT_EQ(Spec.ParamPre[0]->Kind, PermKind::Share);
  EXPECT_FALSE(Spec.ReceiverPre.has_value());
}

TEST(ExtractTest, ThresholdBoundsAsserted) {
  auto Prog = analyze("class A { void m(A p) { } }");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 1);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  // t in [0.5, 1) per Figure 9 — valid calls work:
  MethodSpec Spec = extractSpec(S, 1, 0.5);
  EXPECT_TRUE(Spec.isEmpty());
}

//===----------------------------------------------------------------------===//
// Exact log-odds pooling and the kept pooled vector
//===----------------------------------------------------------------------===//

namespace {

/// What a test set on a TargetSummary, pooled from scratch: per variable,
/// the fixed-point log-odds (llround(log(odds) * 2^40)) of the prior, the
/// self odds and every site, summed, then exp'd back into odds and a
/// probability. Kept here as the bit-exact reference, spelled out apart
/// from Summary.cpp. Test magnitudes stay far below 2^63, so an int64_t
/// sum is exact here.
struct ReferenceTarget {
  std::vector<double> Prior; ///< Probabilities.
  std::vector<double> Self;  ///< Odds.
  std::map<CallSiteKey, std::vector<double>, CallSiteOrder> Sites;

  static int64_t fixed(double Odds) {
    return std::llround(std::log(Odds) * 0x1p40);
  }

  std::vector<double> pool(bool SkipSelf, const CallSiteKey *SkipSite) const {
    std::vector<double> Out(Prior.size());
    for (size_t I = 0; I != Prior.size(); ++I) {
      int64_t Sum = fixed(probToOdds(Prior[I]));
      if (!SkipSelf && I < Self.size())
        Sum += fixed(Self[I]);
      for (const auto &[Site, Vec] : Sites) {
        if (SkipSite && Site == *SkipSite)
          continue;
        if (I < Vec.size())
          Sum += fixed(Vec[I]);
      }
      Out[I] = oddsToProb(std::exp(static_cast<double>(Sum) / 0x1p40));
    }
    return Out;
  }

  /// The paper's pointwise product, folded per variable as prior, self,
  /// then sites in CallSiteOrder. Sets \p LeftNormalRange when a running
  /// product overflowed or left the normal doubles, where the float
  /// product loses the evidence that the exact sum keeps.
  std::vector<double> product(bool SkipSelf, const CallSiteKey *SkipSite,
                              bool &LeftNormalRange) const {
    std::vector<double> Out(Prior.size());
    for (size_t I = 0; I != Prior.size(); ++I) {
      double Odds = probToOdds(Prior[I]);
      if (!SkipSelf && I < Self.size())
        Odds *= Self[I];
      for (const auto &[Site, Vec] : Sites) {
        if (SkipSite && Site == *SkipSite)
          continue;
        if (I < Vec.size())
          Odds *= Vec[I];
        LeftNormalRange |= !std::isnormal(Odds);
      }
      Out[I] = oddsToProb(Odds);
    }
    return Out;
  }
};

std::vector<uint64_t> bitsOf(const std::vector<double> &V) {
  std::vector<uint64_t> Bits(V.size());
  if (!V.empty())
    std::memcpy(Bits.data(), V.data(), V.size() * sizeof(double));
  return Bits;
}

double maxAbsDelta(const std::vector<double> &A, const std::vector<double> &B) {
  double Delta = 0.0;
  for (size_t I = 0; I != A.size(); ++I)
    Delta = std::max(Delta, std::fabs(A[I] - B[I]));
  return Delta;
}

/// A program whose `Host.use` receiver has a four-state class (so
/// targets have 9 variables) plus 70 caller methods to key up to 700
/// distinct call sites.
std::string poolingSource() {
  std::string Src = "@States({\"OPEN\", \"CLOSED\", \"EOF\"})\n"
                    "class Host {\n"
                    "  @Perm(requires=\"full(this) in OPEN\", "
                    "ensures=\"full(this) in CLOSED\")\n"
                    "  void use() { }\n"
                    "}\n"
                    "class Callers {\n";
  for (int I = 0; I != 70; ++I)
    Src += "  void c" + std::to_string(I) + "() { }\n";
  return Src + "}\n";
}

/// Draws odds the engine produces: neutral, the evidence cap (x9), the
/// odds-ratio clamp (1e6) and anything log-uniform in between.
class OddsSource {
public:
  explicit OddsSource(uint64_t Seed) : R(Seed) {}

  double draw() {
    switch (R.below(6)) {
    case 0:
      return 1.0;
    case 1:
      return 9.0;
    case 2:
      return 1.0 / 9.0;
    case 3:
      return R.below(2) ? 1e6 : 1e-6;
    default:
      return std::exp((R.uniform() * 2.0 - 1.0) * std::log(9.0));
    }
  }

  std::vector<double> vec(size_t N) {
    std::vector<double> V(N);
    for (double &O : V)
      O = draw();
    return V;
  }

  unsigned below(unsigned N) { return static_cast<unsigned>(R.below(N)); }

private:
  Rng R;
};

struct PoolingFixture {
  std::unique_ptr<Program> Prog;
  MethodDecl *Use = nullptr;
  std::vector<MethodDecl *> Callers;

  PoolingFixture() : Prog(analyze(poolingSource())) {
    Use = Prog->findType("Host")->findMethod("use", 0);
    for (auto &M : Prog->findType("Callers")->Methods)
      Callers.push_back(M.get());
  }

  CallSiteKey site(OddsSource &Src) const {
    return {Callers[Src.below(static_cast<unsigned>(Callers.size()))],
            Src.below(10)};
  }

  /// Every method's skeleton, as the engine's store holds them.
  MethodDeclMap<MethodSummary> skeletons() const {
    MethodDeclMap<MethodSummary> Store;
    for (const auto &Type : Prog->Types)
      for (const auto &M : Type->Methods)
        Store.emplace(M.get(), MethodSummary::forMethod(*M, 0.9, 0.1));
    return Store;
  }

  /// The reference of `use`'s receiver-pre skeleton: full(this) in OPEN.
  ReferenceTarget useRecvPre(const TargetSummary &T) const {
    ReferenceTarget Ref;
    for (unsigned K = 0; K != NumPermKinds; ++K)
      Ref.Prior.push_back(static_cast<PermKind>(K) == PermKind::Full ? 0.9
                                                                     : 0.1);
    for (const std::string &State : T.states())
      Ref.Prior.push_back(State == "OPEN" ? 0.9 : 0.1);
    Ref.Self.assign(T.size(), 1.0);
    return Ref;
  }
};

/// Asserts that \p T pools bit-identically to the reference, with and
/// without self and without one present and one absent site.
void expectPoolsLikeReference(const TargetSummary &T,
                              const ReferenceTarget &Ref, OddsSource &Src,
                              const PoolingFixture &F) {
  ASSERT_EQ(bitsOf(T.pooled()), bitsOf(Ref.pool(false, nullptr)));
  ASSERT_EQ(bitsOf(T.pooledWithoutSelf()), bitsOf(Ref.pool(true, nullptr)));
  if (!Ref.Sites.empty()) {
    auto It = Ref.Sites.begin();
    std::advance(It, Src.below(static_cast<unsigned>(Ref.Sites.size())));
    ASSERT_EQ(bitsOf(T.pooledWithoutSite(It->first)),
              bitsOf(Ref.pool(false, &It->first)));
  }
  CallSiteKey Any = F.site(Src);
  ASSERT_EQ(bitsOf(T.pooledWithoutSite(Any)), bitsOf(Ref.pool(false, &Any)));
}

/// One random mutation through the public API, mirrored into \p Ref;
/// asserts the returned delta equals the from-scratch recomputation.
void mutate(TargetSummary &T, ReferenceTarget &Ref, OddsSource &Src,
            const PoolingFixture &F, bool AllowPrior) {
  std::vector<double> Before = Ref.pool(false, nullptr);
  double Delta = 0.0;
  unsigned Op = Src.below(AllowPrior ? 10 : 9);
  if (Op < 6) {
    CallSiteKey Site = F.site(Src);
    std::vector<double> Odds = Src.vec(T.size());
    Ref.Sites[Site] = Odds;
    Delta = T.setSiteOdds(Site, Odds);
  } else if (Op < 9) {
    std::vector<double> Odds = Src.vec(T.size());
    Ref.Self = Odds;
    Delta = T.setSelfOdds(Odds);
  } else {
    PermState PS;
    PS.Kind = static_cast<PermKind>(Src.below(NumPermKinds));
    PS.State = T.states()[Src.below(static_cast<unsigned>(T.states().size()))];
    T.setDeclaredPrior(PS, 0.9, 0.1);
    for (unsigned K = 0; K != NumPermKinds; ++K)
      Ref.Prior[K] = static_cast<PermKind>(K) == PS.Kind ? 0.9 : 0.1;
    for (size_t S = 0; S != T.states().size(); ++S)
      Ref.Prior[NumPermKinds + S] = T.states()[S] == PS.State ? 0.9 : 0.1;
    return; // A prior seed reports no delta; pooled() is checked after.
  }
  ASSERT_EQ(Delta, maxAbsDelta(Before, Ref.pool(false, nullptr)));
}

/// Fills \p Ref like the first pooling test: 0-300 random sites, and
/// random self odds half the time.
void randomEvidence(ReferenceTarget &Ref, size_t N, OddsSource &Src,
                    const PoolingFixture &F) {
  unsigned Sites = Src.below(301);
  for (unsigned I = 0; I != Sites; ++I) {
    CallSiteKey Site = F.site(Src);
    Ref.Sites[Site] = Src.vec(N);
  }
  if (Src.below(2))
    Ref.Self = Src.vec(N);
}

/// Sets every source of \p Ref on \p T, sites in map (CallSiteOrder)
/// order, then self.
void setAll(TargetSummary &T, const ReferenceTarget &Ref) {
  for (const auto &[Site, Odds] : Ref.Sites)
    T.setSiteOdds(Site, Odds);
  T.setSelfOdds(Ref.Self);
}

} // namespace

TEST(PoolingTest, PoolsBitIdenticalToTheReferenceSum) {
  PoolingFixture F;
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    OddsSource Src(Seed);
    MethodSummary S = MethodSummary::forMethod(*F.Use, 0.9, 0.1);
    TargetSummary &T = *S.RecvPre;
    // `use` declares full(this) in OPEN: the skeleton's prior.
    ReferenceTarget Ref = F.useRecvPre(T);
    // 0-300 sites, neutral and clamped odds among them.
    randomEvidence(Ref, T.size(), Src, F);
    setAll(T, Ref);
    expectPoolsLikeReference(T, Ref, Src, F);
  }
}

TEST(PoolingTest, StaysWithinOneInABillionOfTheOddsProduct) {
  // The paper pools by odds multiplication. Where the float product
  // stays in the normal range, the exact log-odds sum agrees with it to
  // well within 1e-9 relative, pooled and cavity priors alike.
  PoolingFixture F;
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    OddsSource Src(Seed);
    MethodSummary S = MethodSummary::forMethod(*F.Use, 0.9, 0.1);
    TargetSummary &T = *S.RecvPre;
    ReferenceTarget Ref = F.useRecvPre(T);
    randomEvidence(Ref, T.size(), Src, F);
    setAll(T, Ref);
    auto ExpectClose = [](const std::vector<double> &Got,
                          const std::vector<double> &Product) {
      ASSERT_EQ(Got.size(), Product.size());
      for (size_t I = 0; I != Got.size(); ++I)
        EXPECT_LE(std::fabs(Got[I] - Product[I]), 1e-9 * Product[I])
            << "variable " << I;
    };
    bool LeftNormalRange = false;
    ExpectClose(T.pooled(), Ref.product(false, nullptr, LeftNormalRange));
    ExpectClose(T.pooledWithoutSelf(),
                Ref.product(true, nullptr, LeftNormalRange));
    for (const auto &Entry : Ref.Sites)
      ExpectClose(T.pooledWithoutSite(Entry.first),
                  Ref.product(false, &Entry.first, LeftNormalRange));
    ASSERT_FALSE(LeftNormalRange) << "the anchor compares nothing here";
  }
}

TEST(PoolingTest, EveryDeltaMatchesRecomputationAcrossInterleavings) {
  PoolingFixture F;
  for (uint64_t Seed = 100; Seed != 120; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    OddsSource Src(Seed);
    TargetSummary T(F.Prog->findType("Host"));
    ReferenceTarget Ref;
    Ref.Prior.assign(T.size(), 0.5);
    Ref.Self.assign(T.size(), 1.0);
    for (int Step = 0; Step != 300; ++Step) {
      mutate(T, Ref, Src, F, /*AllowPrior=*/true);
      ASSERT_EQ(bitsOf(T.pooled()), bitsOf(Ref.pool(false, nullptr)))
          << "stale pooled vector after step " << Step;
    }
    expectPoolsLikeReference(T, Ref, Src, F);
  }
}

TEST(PoolingTest, DeltasStayExactInACopiedStore) {
  PoolingFixture F;
  for (uint64_t Seed = 200; Seed != 210; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    OddsSource Src(Seed);
    MethodDeclMap<MethodSummary> Store = F.skeletons();
    TargetSummary &T = *Store.at(F.Use).RecvPost;
    ReferenceTarget Ref;
    for (unsigned K = 0; K != NumPermKinds; ++K)
      Ref.Prior.push_back(static_cast<PermKind>(K) == PermKind::Full ? 0.9
                                                                     : 0.1);
    for (const std::string &State : T.states())
      Ref.Prior.push_back(State == "CLOSED" ? 0.9 : 0.1);
    Ref.Self.assign(T.size(), 1.0);
    ASSERT_EQ(bitsOf(T.pooled()), bitsOf(Ref.pool(false, nullptr)));
    for (int Step = 0; Step != 150; ++Step)
      mutate(T, Ref, Src, F, /*AllowPrior=*/false);

    // Copy the store, as a caller of InferResult::Summaries may, and keep
    // mutating the copy: its kept pooled vector must be as fresh as the
    // original's, and the copy must encode to the original's bytes.
    MethodDeclMap<MethodSummary> Copied = Store;
    ASSERT_EQ(summaryio::encodeSnapshot(Copied),
              summaryio::encodeSnapshot(Store));
    TargetSummary &D = *Copied.at(F.Use).RecvPost;
    expectPoolsLikeReference(D, Ref, Src, F);
    for (int Step = 0; Step != 150; ++Step) {
      mutate(D, Ref, Src, F, /*AllowPrior=*/false);
      ASSERT_EQ(bitsOf(D.pooled()), bitsOf(Ref.pool(false, nullptr)));
    }
    expectPoolsLikeReference(D, Ref, Src, F);
  }
}

namespace {

/// Sets one site's odds on \p T and \p Ref and asserts that the returned
/// delta, the pooled vector and every cavity prior match the reference
/// bit for bit.
void setSiteAndCheck(TargetSummary &T, ReferenceTarget &Ref, OddsSource &Src,
                     CallSiteKey Site) {
  std::vector<double> Before = Ref.pool(false, nullptr);
  std::vector<double> Odds = Src.vec(T.size());
  Ref.Sites[Site] = Odds;
  ASSERT_EQ(T.setSiteOdds(Site, Odds),
            maxAbsDelta(Before, Ref.pool(false, nullptr)));
  ASSERT_EQ(bitsOf(T.pooled()), bitsOf(Ref.pool(false, nullptr)));
  ASSERT_EQ(bitsOf(T.pooledWithoutSelf()), bitsOf(Ref.pool(true, nullptr)));
  for (const auto &Entry : Ref.Sites)
    ASSERT_EQ(bitsOf(T.pooledWithoutSite(Entry.first)),
              bitsOf(Ref.pool(false, &Entry.first)));
}

} // namespace

TEST(PoolingTest, SitesInsertedOutOfOrderAndResetKeepOneRowEach) {
  // The store keeps its site rows sorted by CallSiteOrder, so a site that
  // arrives before, between or after the present ones must land where a
  // lookup finds it, and re-setting a site must overwrite its row in
  // place instead of adding one (which would count its vote twice).
  PoolingFixture F;
  OddsSource Src(300);
  TargetSummary T(F.Prog->findType("Host"));
  ReferenceTarget Ref;
  Ref.Prior.assign(T.size(), 0.5);
  Ref.Self.assign(T.size(), 1.0);
  auto Set = [&](int Caller, uint32_t SiteIndex) {
    setSiteAndCheck(T, Ref, Src, {F.Callers[Caller], SiteIndex});
  };
  // Descending callers: every insert lands before all present rows.
  for (int C = 39; C >= 3; C -= 4)
    ASSERT_NO_FATAL_FAILURE(Set(C, 5));
  // Between present sites: a lower and a higher site index of each
  // present caller, then the callers in the gaps.
  for (int C = 39; C >= 3; C -= 4) {
    ASSERT_NO_FATAL_FAILURE(Set(C, 9));
    ASSERT_NO_FATAL_FAILURE(Set(C, 0));
  }
  for (int C = 1; C < 40; C += 4)
    ASSERT_NO_FATAL_FAILURE(Set(C, 2));
  Ref.Self = Src.vec(T.size());
  T.setSelfOdds(Ref.Self);
  // Re-set present sites out of order: the last, the first, then some
  // in between.
  const std::pair<int, uint32_t> Present[] = {
      {39, 9}, {1, 2}, {19, 5}, {3, 0}, {37, 2}, {19, 9}, {39, 9}};
  for (const auto &[C, S] : Present)
    ASSERT_NO_FATAL_FAILURE(Set(C, S));
  ASSERT_EQ(Ref.Sites.size(), 40u);
  ASSERT_NO_FATAL_FAILURE(expectPoolsLikeReference(T, Ref, Src, F));
}

TEST(PoolingTest, EvidenceOrderChangesNoBit) {
  // One evidence set reaches one pooled state: inserted in CallSiteOrder,
  // reversed, shuffled, or after overwrites, a target pools, builds every
  // cavity prior and encodes to the same bits.
  PoolingFixture F;
  for (uint64_t Seed = 400; Seed != 410; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    OddsSource Src(Seed);
    const size_t N = MethodSummary::forMethod(*F.Use, 0.9, 0.1).RecvPre->size();
    std::vector<std::pair<CallSiteKey, std::vector<double>>> Evidence;
    {
      std::map<CallSiteKey, std::vector<double>, CallSiteOrder> Sites;
      for (int I = 0; I != 120; ++I)
        Sites[F.site(Src)] = Src.vec(N);
      Evidence.assign(Sites.begin(), Sites.end()); // CallSiteOrder.
    }
    const std::vector<double> Self = Src.vec(N);

    auto Build = [&](const std::vector<size_t> &Order, bool Overwrite,
                     size_t SelfAt) {
      MethodDeclMap<MethodSummary> Store = F.skeletons();
      TargetSummary &T = *Store.at(F.Use).RecvPre;
      if (Overwrite) {
        // Earlier evidence for every source, replaced below.
        T.setSelfOdds(Src.vec(N));
        for (size_t K = Order.size(); K-- != 0;)
          T.setSiteOdds(Evidence[Order[K]].first, Src.vec(N));
      }
      for (size_t K = 0; K != Order.size(); ++K) {
        if (K == SelfAt)
          T.setSelfOdds(Self);
        T.setSiteOdds(Evidence[Order[K]].first, Evidence[Order[K]].second);
      }
      if (SelfAt >= Order.size())
        T.setSelfOdds(Self);
      return Store;
    };
    std::vector<size_t> Sorted(Evidence.size());
    for (size_t K = 0; K != Sorted.size(); ++K)
      Sorted[K] = K;
    std::vector<size_t> Reversed(Sorted.rbegin(), Sorted.rend());
    std::vector<size_t> Shuffled = Sorted;
    for (size_t K = Shuffled.size(); K > 1; --K)
      std::swap(Shuffled[K - 1],
                Shuffled[Src.below(static_cast<unsigned>(K))]);

    const MethodDeclMap<MethodSummary> Stores[] = {
        Build(Sorted, false, Sorted.size()), Build(Reversed, false, 0),
        Build(Shuffled, false, Shuffled.size() / 2),
        Build(Shuffled, true, 7)};
    const std::string Snapshot = summaryio::encodeSnapshot(Stores[0]);
    const TargetSummary &First = *Stores[0].at(F.Use).RecvPre;
    for (size_t V = 1; V != std::size(Stores); ++V) {
      SCOPED_TRACE("variant " + std::to_string(V));
      const TargetSummary &T = *Stores[V].at(F.Use).RecvPre;
      ASSERT_EQ(bitsOf(T.pooled()), bitsOf(First.pooled()));
      ASSERT_EQ(bitsOf(T.pooledWithoutSelf()),
                bitsOf(First.pooledWithoutSelf()));
      for (const auto &Entry : Evidence)
        ASSERT_EQ(bitsOf(T.pooledWithoutSite(Entry.first)),
                  bitsOf(First.pooledWithoutSite(Entry.first)));
      ASSERT_EQ(summaryio::encodeSnapshot(Stores[V]), Snapshot);
    }
  }
}

TEST(PoolingTest, CavityEqualsATargetBuiltWithoutThatSource) {
  // A cavity prior is exactly the pooled vector of the target that never
  // saw the left-out source, bit for bit.
  PoolingFixture F;
  for (uint64_t Seed = 500; Seed != 505; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    OddsSource Src(Seed);
    MethodSummary S = MethodSummary::forMethod(*F.Use, 0.9, 0.1);
    TargetSummary &T = *S.RecvPre;
    ReferenceTarget Ref = F.useRecvPre(T);
    for (int I = 0; I != 60; ++I)
      Ref.Sites[F.site(Src)] = Src.vec(T.size());
    Ref.Self = Src.vec(T.size());
    setAll(T, Ref);

    for (const auto &Left : Ref.Sites) {
      MethodSummary Fresh = MethodSummary::forMethod(*F.Use, 0.9, 0.1);
      for (const auto &[Site, Vec] : Ref.Sites)
        if (Site != Left.first)
          Fresh.RecvPre->setSiteOdds(Site, Vec);
      Fresh.RecvPre->setSelfOdds(Ref.Self);
      ASSERT_EQ(bitsOf(T.pooledWithoutSite(Left.first)),
                bitsOf(Fresh.RecvPre->pooled()));
    }

    // Without self: a target whose self odds were never set, and one
    // whose self odds were set and then reset to neutral.
    MethodSummary Unset = MethodSummary::forMethod(*F.Use, 0.9, 0.1);
    MethodSummary Reset = MethodSummary::forMethod(*F.Use, 0.9, 0.1);
    Reset.RecvPre->setSelfOdds(Ref.Self);
    for (const auto &[Site, Vec] : Ref.Sites) {
      Unset.RecvPre->setSiteOdds(Site, Vec);
      Reset.RecvPre->setSiteOdds(Site, Vec);
    }
    Reset.RecvPre->setSelfOdds(std::vector<double>(T.size(), 1.0));
    ASSERT_EQ(bitsOf(T.pooledWithoutSelf()), bitsOf(Unset.RecvPre->pooled()));
    ASSERT_EQ(bitsOf(T.pooledWithoutSelf()), bitsOf(Reset.RecvPre->pooled()));
  }
}

TEST(PoolingTest, OpposedVotesCancelExactly) {
  // 330 sites vote x9 on every variable, and the 330 after them in
  // CallSiteOrder vote x1/9. A float product overflows to +inf within
  // the first 330 and stays there; the exact sum cancels to the prior.
  PoolingFixture F;
  MethodSummary S = MethodSummary::forMethod(*F.Use, 0.9, 0.1);
  TargetSummary &T = *S.RecvPre;
  const std::vector<double> PriorOnly = T.pooled();
  ReferenceTarget Ref = F.useRecvPre(T);
  const std::vector<double> For(T.size(), 9.0), Against(T.size(), 1.0 / 9.0);
  for (int K = 0; K != 660; ++K) {
    CallSiteKey Site{F.Callers[K / 10], static_cast<uint32_t>(K % 10)};
    Ref.Sites[Site] = K < 330 ? For : Against;
    T.setSiteOdds(Site, Ref.Sites[Site]);
  }
  bool LeftNormalRange = false;
  Ref.product(false, nullptr, LeftNormalRange);
  ASSERT_TRUE(LeftNormalRange) << "the float product must overflow here";

  ASSERT_EQ(bitsOf(T.pooled()), bitsOf(PriorOnly));
  ASSERT_EQ(bitsOf(T.pooledWithoutSelf()), bitsOf(PriorOnly));
  EXPECT_NEAR(T.pooled()[static_cast<unsigned>(PermKind::Full)], 0.9, 1e-9);
  EXPECT_NEAR(T.pooled()[static_cast<unsigned>(PermKind::Unique)], 0.1, 1e-9);
  // Leaving out one vote leaves exactly one x1/9 or x9 over the prior.
  const CallSiteKey FirstFor{F.Callers[0], 0}, LastAgainst{F.Callers[65], 9};
  ASSERT_EQ(bitsOf(T.pooledWithoutSite(FirstFor)),
            bitsOf(Ref.pool(false, &FirstFor)));
  ASSERT_EQ(bitsOf(T.pooledWithoutSite(LastAgainst)),
            bitsOf(Ref.pool(false, &LastAgainst)));
  EXPECT_NEAR(T.pooledWithoutSite(FirstFor)[static_cast<unsigned>(
                  PermKind::Full)],
              0.5, 1e-9);
  EXPECT_NEAR(T.pooledWithoutSite(LastAgainst)[static_cast<unsigned>(
                  PermKind::Unique)],
              0.5, 1e-9);
}
