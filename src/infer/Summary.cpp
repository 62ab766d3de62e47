//===- Summary.cpp - Probabilistic method summaries ------------------------===//

#include "infer/Summary.h"

#include "perm/StateSpace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

using namespace anek;

double anek::probToOdds(double P) {
  constexpr double Eps = 1e-9;
  P = std::clamp(P, Eps, 1.0 - Eps);
  return P / (1.0 - P);
}

double anek::oddsToProb(double Odds) {
  constexpr double Cap = 1e9;
  Odds = std::clamp(Odds, 1.0 / Cap, Cap);
  return Odds / (1.0 + Odds);
}

TargetSummary::TargetSummary(TypeDecl *Class) {
  if (Class)
    States = Class->States.names();
  DeclaredPrior.assign(NumPermKinds + States.size(), 0.5);
  SelfOdds.assign(DeclaredPrior.size(), 1.0);
  Pooled = pool(false, NoSite);
}

void TargetSummary::setDeclaredPrior(const std::optional<PermState> &PS,
                                     double Hi, double Lo) {
  if (!PS)
    return;
  for (unsigned K = 0; K != NumPermKinds; ++K)
    DeclaredPrior[K] =
        static_cast<PermKind>(K) == PS->Kind ? Hi : Lo;
  const std::string &Wanted =
      PS->State.empty() ? std::string(AliveStateName) : PS->State;
  for (size_t S = 0; S != States.size(); ++S)
    DeclaredPrior[NumPermKinds + S] = States[S] == Wanted ? Hi : Lo;
  Pooled = pool(false, NoSite);
}

size_t TargetSummary::siteSlot(const CallSiteKey &Site) const {
  return static_cast<size_t>(
      std::lower_bound(Sites.begin(), Sites.end(), Site, CallSiteOrder()) -
      Sites.begin());
}

double TargetSummary::repool() {
  std::vector<double> Before = std::exchange(Pooled, pool(false, NoSite));
  double Delta = 0.0;
  for (size_t I = 0; I != Pooled.size(); ++I)
    Delta = std::max(Delta, std::fabs(Before[I] - Pooled[I]));
  return Delta;
}

double TargetSummary::setSelfOdds(std::vector<double> Odds) {
  Odds.resize(size(), 1.0);
  SelfOdds = std::move(Odds);
  return repool();
}

double TargetSummary::setSiteOdds(CallSiteKey Site,
                                  std::vector<double> Odds) {
  const size_t N = size();
  Odds.resize(N, 1.0);
  const size_t K = siteSlot(Site);
  auto Row = SiteOdds.begin() + static_cast<ptrdiff_t>(K * N);
  if (K != Sites.size() && Sites[K] == Site) {
    std::copy(Odds.begin(), Odds.end(), Row);
  } else {
    Sites.insert(Sites.begin() + static_cast<ptrdiff_t>(K), Site);
    SiteOdds.insert(Row, Odds.begin(), Odds.end());
  }
  return repool();
}

std::vector<double> TargetSummary::pool(bool SkipSelf,
                                        size_t SkipSite) const {
  const size_t N = size();
  std::vector<double> Odds(N);
  for (size_t I = 0; I != N; ++I) {
    Odds[I] = probToOdds(DeclaredPrior[I]);
    if (!SkipSelf)
      Odds[I] *= SelfOdds[I];
  }
  const double *Row = SiteOdds.data();
  for (size_t K = 0; K != Sites.size(); ++K, Row += N) {
    if (K == SkipSite)
      continue;
    for (size_t I = 0; I != N; ++I)
      Odds[I] *= Row[I];
  }
  for (double &O : Odds)
    O = oddsToProb(O);
  return Odds;
}

std::vector<double> TargetSummary::pooledWithoutSelf() const {
  return pool(true, NoSite);
}

std::vector<double>
TargetSummary::pooledWithoutSite(CallSiteKey Site) const {
  const size_t K = siteSlot(Site);
  return pool(false, K != Sites.size() && Sites[K] == Site ? K : NoSite);
}

MethodSummary MethodSummary::forMethod(const MethodDecl &Method, double Hi,
                                       double Lo) {
  MethodSummary Summary;
  const MethodSpec &Spec = Method.DeclaredSpec;
  bool HasSpec = Method.HasDeclaredSpec;

  if (!Method.IsStatic && Method.Owner) {
    Summary.RecvPre.emplace(Method.Owner);
    Summary.RecvPost.emplace(Method.Owner);
    if (HasSpec) {
      Summary.RecvPre->setDeclaredPrior(Spec.ReceiverPre, Hi, Lo);
      Summary.RecvPost->setDeclaredPrior(Spec.ReceiverPost, Hi, Lo);
    }
  }

  unsigned NumParams = static_cast<unsigned>(Method.Params.size());
  Summary.ParamPre.resize(NumParams);
  Summary.ParamPost.resize(NumParams);
  for (unsigned I = 0; I != NumParams; ++I) {
    const ParamDecl &Param = Method.Params[I];
    if (!Param.Type.isClass() || !Param.Type.Decl)
      continue;
    Summary.ParamPre[I].emplace(Param.Type.Decl);
    Summary.ParamPost[I].emplace(Param.Type.Decl);
    if (HasSpec && I < Spec.ParamPre.size()) {
      Summary.ParamPre[I]->setDeclaredPrior(Spec.ParamPre[I], Hi, Lo);
      Summary.ParamPost[I]->setDeclaredPrior(Spec.ParamPost[I], Hi, Lo);
    }
  }

  // Constructors "return" their receiver post; model the result as the
  // receiver-post target so call sites (NewObject nodes) read it.
  if (Method.IsCtor) {
    Summary.Result.emplace(Method.Owner);
    if (HasSpec && Spec.ReceiverPost)
      Summary.Result->setDeclaredPrior(Spec.ReceiverPost, Hi, Lo);
  } else if (Method.ReturnType.isClass() && Method.ReturnType.Decl) {
    Summary.Result.emplace(Method.ReturnType.Decl);
    if (HasSpec)
      Summary.Result->setDeclaredPrior(Spec.Result, Hi, Lo);
  }
  return Summary;
}

std::optional<PermState>
anek::extractPermState(const std::vector<double> &P,
                       const std::vector<std::string> &States, double T,
                       bool PreferUnique) {
  assert(P.size() >= NumPermKinds && "marginal vector too short");
  unsigned BestKind = 0;
  for (unsigned K = 1; K != NumPermKinds; ++K)
    if (P[K] > P[BestKind])
      BestKind = K;
  if (P[BestKind] <= T)
    return std::nullopt;
  // "Unique is the best choice whenever possible" for returned values.
  constexpr unsigned UniqueIndex = static_cast<unsigned>(PermKind::Unique);
  if (PreferUnique && BestKind != UniqueIndex && P[UniqueIndex] > T &&
      P[BestKind] - P[UniqueIndex] < 0.1)
    BestKind = UniqueIndex;

  PermState Out;
  Out.Kind = static_cast<PermKind>(BestKind);
  if (!States.empty() && P.size() >= NumPermKinds + States.size()) {
    size_t BestState = 0;
    for (size_t S = 1; S != States.size(); ++S)
      if (P[NumPermKinds + S] > P[NumPermKinds + BestState])
        BestState = S;
    if (P[NumPermKinds + BestState] > T &&
        States[BestState] != AliveStateName)
      Out.State = States[BestState];
  }
  return Out;
}

/// Picks the winning kind/state of one pooled vector, or nothing when the
/// winner does not clear the threshold.
static std::optional<PermState>
extractTarget(const TargetSummary &Summary, double T,
              bool PreferUnique = false) {
  return extractPermState(Summary.pooled(), Summary.states(), T,
                          PreferUnique);
}

MethodSpec anek::extractSpec(const MethodSummary &Summary,
                             unsigned NumParams, double T) {
  assert(T >= 0.5 && T < 1.0 && "threshold t must be in [0.5, 1)");
  MethodSpec Spec;
  Spec.resizeParams(NumParams);
  if (Summary.RecvPre)
    Spec.ReceiverPre = extractTarget(*Summary.RecvPre, T);
  if (Summary.RecvPost)
    Spec.ReceiverPost = extractTarget(*Summary.RecvPost, T);
  for (unsigned I = 0; I != NumParams && I < Summary.ParamPre.size(); ++I)
    if (Summary.ParamPre[I])
      Spec.ParamPre[I] = extractTarget(*Summary.ParamPre[I], T);
  for (unsigned I = 0; I != NumParams && I < Summary.ParamPost.size(); ++I)
    if (Summary.ParamPost[I])
      Spec.ParamPost[I] = extractTarget(*Summary.ParamPost[I], T);
  if (Summary.Result)
    Spec.Result = extractTarget(*Summary.Result, T, /*PreferUnique=*/true);
  return Spec;
}
