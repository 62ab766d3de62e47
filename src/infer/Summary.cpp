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

namespace {

/// 2^LogOddsBits, the fixed-point scale of every log-odds row.
constexpr double LogOddsScale =
    static_cast<double>(int64_t(1) << TargetSummary::LogOddsBits);

/// One source entry: the odds multiplier \p Odds as fixed-point log-odds.
int64_t fixedLogOdds(double Odds) {
  return std::llround(std::log(Odds) * LogOddsScale);
}

} // namespace

TargetSummary::TargetSummary(TypeDecl *Class) {
  if (Class)
    States = Class->States.names();
  const size_t N = NumPermKinds + States.size();
  Self.assign(N, 0);
  Total.assign(N, 0);
  Pooled = pool(nullptr);
}

void TargetSummary::setDeclaredPrior(const std::optional<PermState> &PS,
                                     double Hi, double Lo) {
  if (!PS)
    return;
  const size_t N = size();
  const std::string &Wanted =
      PS->State.empty() ? std::string(AliveStateName) : PS->State;
  for (size_t I = 0; I != N; ++I) {
    const bool Named = I < NumPermKinds
                           ? static_cast<PermKind>(I) == PS->Kind
                           : States[I - NumPermKinds] == Wanted;
    Total[I] = LogOddsSum(fixedLogOdds(probToOdds(Named ? Hi : Lo))) + Self[I];
  }
  // The prior keeps no row of its own, so the total is re-derived.
  for (size_t K = 0; K != Sites.size(); ++K)
    for (size_t I = 0; I != N; ++I)
      Total[I] += SiteRows[K * N + I];
  Pooled = pool(nullptr);
}

size_t TargetSummary::siteSlot(const CallSiteKey &Site) const {
  return static_cast<size_t>(
      std::lower_bound(Sites.begin(), Sites.end(), Site, CallSiteOrder()) -
      Sites.begin());
}

double TargetSummary::probOf(LogOddsSum Sum) {
  return oddsToProb(std::exp(static_cast<double>(Sum) / LogOddsScale));
}

double TargetSummary::replaceRow(int64_t *Row,
                                 const std::vector<double> &Odds) {
  double Delta = 0.0;
  for (size_t I = 0; I != size(); ++I) {
    const int64_t New = I < Odds.size() ? fixedLogOdds(Odds[I]) : 0;
    if (New == Row[I])
      continue;
    Total[I] += LogOddsSum(New) - Row[I];
    Row[I] = New;
    const double P = probOf(Total[I]);
    Delta = std::max(Delta, std::fabs(Pooled[I] - P));
    Pooled[I] = P;
  }
  return Delta;
}

double TargetSummary::setSelfOdds(const std::vector<double> &Odds) {
  return replaceRow(Self.data(), Odds);
}

double TargetSummary::setSiteOdds(CallSiteKey Site,
                                  const std::vector<double> &Odds) {
  const size_t N = size();
  const size_t K = siteSlot(Site);
  if (K == Sites.size() || Sites[K] != Site) {
    Sites.insert(Sites.begin() + static_cast<ptrdiff_t>(K), Site);
    SiteRows.insert(SiteRows.begin() + static_cast<ptrdiff_t>(K * N), N, 0);
  }
  return replaceRow(SiteRows.data() + K * N, Odds);
}

std::vector<double> TargetSummary::pool(const int64_t *Skip) const {
  std::vector<double> Out(size());
  for (size_t I = 0; I != Out.size(); ++I)
    Out[I] = probOf(Skip ? Total[I] - Skip[I] : Total[I]);
  return Out;
}

std::vector<double> TargetSummary::pooledWithoutSelf() const {
  return pool(Self.data());
}

std::vector<double>
TargetSummary::pooledWithoutSite(CallSiteKey Site) const {
  const size_t K = siteSlot(Site);
  if (K == Sites.size() || Sites[K] != Site)
    return Pooled;
  return pool(SiteRows.data() + K * size());
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
