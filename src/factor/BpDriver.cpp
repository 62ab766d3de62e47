//===- BpDriver.cpp - BP iteration engine over one factor graph -----------===//

#include "factor/BpDriver.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace anek;
using namespace anek::bp;

BpEngine::BpEngine(const kern::BpView &V) : View(V) {
  const uint32_t NumEdges = V.NumEdges;
  const uint32_t NumFactors = V.NumFactors;
  const double Inf = std::numeric_limits<double>::infinity();
  VarToFactor.assign(NumEdges, 0.5);
  FactorToVar.assign(NumEdges, 0.5);
  ClampT.resize(NumEdges);
  ClampF.resize(NumEdges);
  SufT.resize(NumEdges);
  SufF.resize(NumEdges);
  // NewMsg mirrors VarToFactor per position (pass C reads it as the
  // previous outgoing message), so it must share the 0.5 seed.
  NewMsg.assign(NumEdges, 0.5);
  Change.resize(NumEdges);
  OutT.resize(NumEdges);
  OutF.resize(NumEdges);
  EChange.resize(NumEdges);
  // The +inf seeds force every factor to run on the first iteration.
  PendingIn.assign(NumFactors, Inf);
  LastOut.assign(NumFactors, Inf);
  ActiveFactors.resize(NumFactors);
  ActiveEdges.resize(NumEdges);
  uint32_t MaxDeg = 0;
  for (uint32_t Var = 0; Var != V.NumVars; ++Var) {
    const uint32_t Deg = V.VarOffset[Var + 1] - V.VarOffset[Var];
    MaxDeg = std::max(MaxDeg, Deg);
    if (Deg >= kern::LogDomainMinDegree)
      HighDegVars.push_back(Var);
  }
  if (!HighDegVars.empty()) {
    LogSufT.resize(MaxDeg);
    LogSufF.resize(MaxDeg);
  }
  State.VarToFactor = VarToFactor.data();
  State.FactorToVar = FactorToVar.data();
  State.ClampT = ClampT.data();
  State.ClampF = ClampF.data();
  State.SufT = SufT.data();
  State.SufF = SufF.data();
  State.NewMsg = NewMsg.data();
  State.Change = Change.data();
  State.OutT = OutT.data();
  State.OutF = OutF.data();
  State.EChange = EChange.data();
  State.PendingIn = PendingIn.data();
  State.LastOut = LastOut.data();
  State.ActiveFactors = ActiveFactors.data();
  State.ActiveEdges = ActiveEdges.data();
}

void BpEngine::logDomainFixup(const kern::BpConsts &C) {
  for (const uint32_t Var : HighDegVars) {
    const uint32_t B = View.VarOffset[Var];
    const uint32_t E = View.VarOffset[Var + 1];
    // Exclusive suffix/prefix *sums of logs* of the already-clamped
    // incoming messages (clamped, so every log is finite).
    double RunT = 0.0, RunF = 0.0;
    for (uint32_t P = E; P-- != B;) {
      LogSufT[P - B] = RunT;
      LogSufF[P - B] = RunF;
      RunT += std::log(ClampT[P]);
      RunF += std::log(ClampF[P]);
    }
    double PreLogT = std::log(View.Priors[Var]);
    double PreLogF = std::log(1.0 - View.Priors[Var]);
    for (uint32_t P = B; P != E; ++P) {
      const double LogT = PreLogT + LogSufT[P - B];
      const double LogF = PreLogF + LogSufF[P - B];
      // True/(True+False) = 1/(1+exp(logF-logT)); exp saturating to
      // +inf or 0 degrades gracefully to 0 or 1.
      const double Undamped = 1.0 / (1.0 + std::exp(LogF - LogT));
      const double Old = VarToFactor[View.VarEdges[P]];
      const double Damped = C.OneMinusDamping * Undamped + C.Damping * Old;
      NewMsg[P] = Damped;
      Change[P] = std::fabs(Damped - Old);
      PreLogT += std::log(ClampT[P]);
      PreLogF += std::log(ClampF[P]);
    }
  }
}

RunStats BpEngine::run(const SumProductSolver::Options &Opts) {
  const kern::BpConsts C{Opts.Damping, 1.0 - Opts.Damping, Opts.Tolerance,
                         0.5 * Opts.Tolerance};
  // Every RefreshInterval-th iteration recomputes every factor regardless
  // of residual, so sub-threshold drift cannot accumulate unseen.
  constexpr unsigned RefreshInterval = 8;
  RunStats R;
  for (unsigned Iter = 0;; ++Iter) {
    if (Iter == Opts.MaxIterations || !(R.Delta > Opts.Tolerance)) {
      R.Iterations = Iter;
      break;
    }
    const bool Refresh = Iter % RefreshInterval == RefreshInterval - 1;
    kern::bpVarMessages(View, State, C);
    logDomainFixup(C);
    const double D1 = kern::bpVarScatter(View, State);
    R.Updates += View.NumEdges;
    const double D2 =
        kern::bpFactorSweep(View, State, C, Refresh, &R.Updates, &R.Skipped);
    R.Delta = D1 > D2 ? D1 : D2;
  }
  return R;
}

void BpEngine::beliefs(Marginals &Out, Marginals *GraphLikelihood) const {
  Out.assign(View.NumVars, 0.5);
  if (GraphLikelihood)
    GraphLikelihood->assign(View.NumVars, 0.5);
  for (uint32_t Var = 0; Var != View.NumVars; ++Var) {
    double True = View.Priors[Var];
    double False = 1.0 - True;
    double GraphTrue = 1.0, GraphFalse = 1.0;
    for (uint32_t I = View.VarOffset[Var]; I != View.VarOffset[Var + 1];
         ++I) {
      const double In = FactorToVar[View.VarEdges[I]];
      const double MsgTrue = clampProb(In);
      const double MsgFalse = clampProb(1.0 - In);
      True *= MsgTrue;
      False *= MsgFalse;
      GraphTrue *= MsgTrue;
      GraphFalse *= MsgFalse;
      // Renormalize as we go so long products stay in range.
      const double Scale = GraphTrue + GraphFalse;
      GraphTrue /= Scale;
      GraphFalse /= Scale;
    }
    const double Sum = True + False;
    Out[Var] = Sum > 0 ? True / Sum : 0.5;
    if (GraphLikelihood)
      (*GraphLikelihood)[Var] = GraphTrue;
  }
}
