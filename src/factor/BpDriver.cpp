//===- BpDriver.cpp - BP iteration engine over one factor graph -----------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The BP passes, written against Vec4: four doubles processed as
/// lanes. The lane structure fixes the floating-point operation order of
/// every solve, and with it every inferred spec, so any edit must
/// preserve three properties:
///
///  1. Lanes are independent outputs. Wherever four elements are
///     processed per step, each element's own FP operation sequence is
///     exactly what the one-element tail loop performs for it.
///  2. Reductions use a fixed 4-lane strided tree: lane j accumulates
///     elements j, j+4, j+8, ... and the final combine is always
///     (L0 op L1) op (L2 op L3).
///  3. Where a lane must sit out of an accumulation, the neutral element
///     is applied instead (adding +0.0 and multiplying by 1.0 are exact
///     for the non-negative quantities involved), so tail padding and
///     selector masks never perturb a value.
///
/// vmin/vmax follow the x86 minpd/maxpd convention (A cmp B ? A : B, so
/// B on equality), and vabs clears the sign bit, so a -0.0 change never
/// latches into a running max.
///
//===----------------------------------------------------------------------===//

#include "factor/BpDriver.h"

#include "factor/Kernels.h"

#include <cmath>
#include <limits>

using namespace anek;
using namespace anek::bp;

namespace {

//===----------------------------------------------------------------------===//
// The 4-lane type
//===----------------------------------------------------------------------===//

/// Four doubles processed as lanes; every operation is lane-wise unless
/// its comment says otherwise.
struct Vec4 {
  double L[4];
};

inline Vec4 splat(double X) { return {{X, X, X, X}}; }

inline Vec4 load(const double *P) { return {{P[0], P[1], P[2], P[3]}}; }

inline void store(double *P, Vec4 V) {
  for (int J = 0; J != 4; ++J)
    P[J] = V.L[J];
}

inline Vec4 gather(const double *Base, const uint32_t *Idx) {
  return {{Base[Idx[0]], Base[Idx[1]], Base[Idx[2]], Base[Idx[3]]}};
}

inline Vec4 operator+(Vec4 A, Vec4 B) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = A.L[J] + B.L[J];
  return R;
}

inline Vec4 operator-(Vec4 A, Vec4 B) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = A.L[J] - B.L[J];
  return R;
}

inline Vec4 operator*(Vec4 A, Vec4 B) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = A.L[J] * B.L[J];
  return R;
}

inline Vec4 operator/(Vec4 A, Vec4 B) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = A.L[J] / B.L[J];
  return R;
}

inline Vec4 vmin(Vec4 A, Vec4 B) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = A.L[J] < B.L[J] ? A.L[J] : B.L[J];
  return R;
}

inline Vec4 vmax(Vec4 A, Vec4 B) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = A.L[J] > B.L[J] ? A.L[J] : B.L[J];
  return R;
}

inline Vec4 vabs(Vec4 A) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = std::fabs(A.L[J]);
  return R;
}

/// Lane j: S > 0 ? A : B.
inline Vec4 selectGt0(Vec4 S, Vec4 A, Vec4 B) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = S.L[J] > 0.0 ? A.L[J] : B.L[J];
  return R;
}

/// Lane j: V when bit j of M is set, else +0.0.
template <int M> inline Vec4 keepLanes(Vec4 V) {
  Vec4 R;
  for (int J = 0; J != 4; ++J)
    R.L[J] = ((M >> J) & 1) ? V.L[J] : 0.0;
  return R;
}

/// The strided tree's final sum: (L0 + L1) + (L2 + L3).
inline double laneSum(Vec4 V) {
  return (V.L[0] + V.L[1]) + (V.L[2] + V.L[3]);
}

/// The damped factor->var (or var->factor) update of four messages from
/// their unnormalized polarity weights: Sum == 0 lanes divide by 1.0
/// instead (an exact no-op) and select 0.5.
inline Vec4 dampedUpdate(Vec4 True, Vec4 False, Vec4 Old,
                         double OneMinusDamping, double Damping) {
  const Vec4 One = splat(1.0);
  const Vec4 Sum = True + False;
  const Vec4 Quot = True / selectGt0(Sum, Sum, One);
  const Vec4 Undamped = selectGt0(Sum, Quot, splat(0.5));
  return splat(OneMinusDamping) * Undamped + splat(Damping) * Old;
}

/// dampedUpdate for one message.
inline double dampedUpdate(double True, double False, double Old,
                           double OneMinusDamping, double Damping) {
  const double Sum = True + False;
  const double Undamped = Sum > 0 ? True / Sum : 0.5;
  return OneMinusDamping * Undamped + Damping * Old;
}

//===----------------------------------------------------------------------===//
// BP phase 2 helpers
//===----------------------------------------------------------------------===//

/// General-arity (3..16) factor marginalization: one table sweep, four
/// entries per step. Entries i, i+1, i+2, i+3 occupy lanes 0-3; slot-0
/// and slot-1 selector weights vary within the group ([F,T,F,T] and
/// [F,F,T,T]), higher slots are group-constant splats. Per-slot
/// accumulators keep the fixed strided lane tree; lanes whose entry does
/// not feed a given polarity add +0.0 (exact for these non-negative
/// contributions).
void marginalizeGeneral(const double *Table, uint32_t Deg, const double *Msg,
                        double *OutT, double *OutF) {
  double MsgT[16], MsgF[16];
  for (uint32_t K = 0; K != Deg; ++K) {
    MsgT[K] = Msg[K];
    MsgF[K] = 1.0 - MsgT[K];
  }
  Vec4 AccT[16], AccF[16];
  for (uint32_t K = 0; K != Deg; ++K)
    AccT[K] = AccF[K] = splat(0.0);
  Vec4 Sel[16];
  Sel[0] = {{MsgF[0], MsgT[0], MsgF[0], MsgT[0]}};
  Sel[1] = {{MsgF[1], MsgF[1], MsgT[1], MsgT[1]}};
  Vec4 Suf[17];
  Suf[Deg] = splat(1.0);
  const size_t TableSize = size_t{1} << Deg; // >= 8, so no tail.
  for (size_t Index = 0; Index != TableSize; Index += 4) {
    for (uint32_t K = 2; K != Deg; ++K)
      Sel[K] = splat(((Index >> K) & 1) ? MsgT[K] : MsgF[K]);
    // Prefix/suffix grouping: Suf right-folds from 1.0, Pre left-folds
    // from the table weight.
    for (uint32_t K = Deg; K-- != 0;)
      Suf[K] = Suf[K + 1] * Sel[K];
    Vec4 Pre = load(Table + Index);
    for (uint32_t K = 0; K != Deg; ++K) {
      const Vec4 Contrib = Pre * Suf[K + 1];
      if (K == 0) {
        AccT[0] = AccT[0] + keepLanes<0xA>(Contrib);
        AccF[0] = AccF[0] + keepLanes<0x5>(Contrib);
      } else if (K == 1) {
        AccT[1] = AccT[1] + keepLanes<0xC>(Contrib);
        AccF[1] = AccF[1] + keepLanes<0x3>(Contrib);
      } else if ((Index >> K) & 1) {
        AccT[K] = AccT[K] + Contrib;
      } else {
        AccF[K] = AccF[K] + Contrib;
      }
      Pre = Pre * Sel[K];
    }
  }
  for (uint32_t K = 0; K != Deg; ++K) {
    OutT[K] = laneSum(AccT[K]);
    OutF[K] = laneSum(AccF[K]);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine state
//===----------------------------------------------------------------------===//

BpEngine::BpEngine(const FactorGraph &G)
    : L(G.edgeLayout()), NumVars(G.variableCount()),
      NumFactors(G.factorCount()), NumEdges(L.edgeCount()) {
  const double Inf = std::numeric_limits<double>::infinity();
  Priors.resize(NumVars);
  for (uint32_t Var = 0; Var != NumVars; ++Var)
    Priors[Var] = G.variable(Var).Prior;
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
  for (uint32_t Var = 0; Var != NumVars; ++Var)
    if (L.varDegree(Var) >= kern::LogDomainMinDegree)
      HighDegVars.push_back(Var);
  if (!HighDegVars.empty()) {
    LogSufT.resize(L.MaxVarDegree);
    LogSufF.resize(L.MaxVarDegree);
  }
}

//===----------------------------------------------------------------------===//
// BP phase 1
//===----------------------------------------------------------------------===//

/// Structure: pass A gathers and clamps incoming factor->var messages,
/// pass B forms per-variable exclusive prefix/suffix products (the
/// prefix walk folds its running value into the suffix array in place,
/// SufT[P] = PreT * SufT[P]), pass C is the damped update. The previous
/// outgoing message is read from NewMsg[P], not gathered from
/// VarToFactor: varScatter copied NewMsg[P] there last iteration (and
/// both start at 0.5), so the values are identical by induction. A
/// fully per-variable form (Clamp/Suf scratch rebased to an L1-resident
/// row) was tried and regressed: per-row loop overhead outweighs the
/// stream savings at these degrees, so the passes stay flat over all
/// positions.
void BpEngine::varMessages() {
  const uint32_t PE = NumEdges;

  // Pass A: gather incoming factor->var messages and clamp both
  // polarities. Elementwise over positions; lane-independent.
  {
    const Vec4 One = splat(1.0);
    const Vec4 Eps = splat(ProbEps);
    const Vec4 OneMinusEps = splat(1.0 - ProbEps);
    uint32_t P = 0;
    for (; P + 4 <= PE; P += 4) {
      const Vec4 In = gather(FactorToVar.data(), L.VarEdges.data() + P);
      store(ClampT.data() + P, vmin(vmax(In, Eps), OneMinusEps));
      store(ClampF.data() + P, vmin(vmax(One - In, Eps), OneMinusEps));
    }
    for (; P != PE; ++P) {
      const double In = FactorToVar[L.VarEdges[P]];
      ClampT[P] = clampProb(In);
      ClampF[P] = clampProb(1.0 - In);
    }
  }

  // Pass B, per variable at its global positions.
  for (uint32_t Var = 0; Var != NumVars; ++Var) {
    const uint32_t B = L.VarOffset[Var];
    const uint32_t E = L.VarOffset[Var + 1];
    double RunT = 1.0, RunF = 1.0;
    for (uint32_t P = E; P-- != B;) {
      SufT[P] = RunT;
      SufF[P] = RunF;
      RunT = ClampT[P] * RunT;
      RunF = ClampF[P] * RunF;
    }
    double PreT = Priors[Var];
    double PreF = 1.0 - PreT;
    for (uint32_t P = B; P != E; ++P) {
      SufT[P] = PreT * SufT[P];
      SufF[P] = PreF * SufF[P];
      PreT *= ClampT[P];
      PreF *= ClampF[P];
    }
  }

  // Pass C: NewMsg/Change are left for logDomainFixup and varScatter.
  uint32_t P = 0;
  for (; P + 4 <= PE; P += 4) {
    const Vec4 Old = load(NewMsg.data() + P);
    const Vec4 Msg = dampedUpdate(load(SufT.data() + P), load(SufF.data() + P),
                                  Old, OneMinusDamping, Damping);
    store(NewMsg.data() + P, Msg);
    store(Change.data() + P, vabs(Msg - Old));
  }
  for (; P != PE; ++P) {
    const double Old = NewMsg[P];
    const double Msg =
        dampedUpdate(SufT[P], SufF[P], Old, OneMinusDamping, Damping);
    NewMsg[P] = Msg;
    Change[P] = std::fabs(Msg - Old);
  }
}

void BpEngine::logDomainFixup() {
  for (const uint32_t Var : HighDegVars) {
    const uint32_t B = L.VarOffset[Var];
    const uint32_t E = L.VarOffset[Var + 1];
    // Exclusive suffix/prefix *sums of logs* of the already-clamped
    // incoming messages (clamped, so every log is finite).
    double RunT = 0.0, RunF = 0.0;
    for (uint32_t P = E; P-- != B;) {
      LogSufT[P - B] = RunT;
      LogSufF[P - B] = RunF;
      RunT += std::log(ClampT[P]);
      RunF += std::log(ClampF[P]);
    }
    double PreLogT = std::log(Priors[Var]);
    double PreLogF = std::log(1.0 - Priors[Var]);
    for (uint32_t P = B; P != E; ++P) {
      const double LogT = PreLogT + LogSufT[P - B];
      const double LogF = PreLogF + LogSufF[P - B];
      // True/(True+False) = 1/(1+exp(logF-logT)); exp saturating to
      // +inf or 0 degrades gracefully to 0 or 1.
      const double Undamped = 1.0 / (1.0 + std::exp(LogF - LogT));
      const double Old = VarToFactor[L.VarEdges[P]];
      const double Damped = OneMinusDamping * Undamped + Damping * Old;
      NewMsg[P] = Damped;
      Change[P] = std::fabs(Damped - Old);
      PreLogT += std::log(ClampT[P]);
      PreLogF += std::log(ClampF[P]);
    }
  }
}

/// One element at a time: PendingIn is a scatter-add with repeated
/// factor targets.
double BpEngine::varScatter() {
  double Delta = 0.0;
  for (uint32_t P = 0; P != NumEdges; ++P) {
    const double Ch = Change[P];
    VarToFactor[L.VarEdges[P]] = NewMsg[P];
    PendingIn[L.VmFactor[P]] += Ch;
    Delta = Delta > Ch ? Delta : Ch;
  }
  return Delta;
}

//===----------------------------------------------------------------------===//
// BP phase 2
//===----------------------------------------------------------------------===//

/// Arity 1/2 take closed forms (two or four multiplies do not amortize a
/// lane setup); arity >= 3 takes the table sweep. Inline, so the sweep's
/// loop makes no call per factor (3-5% of a small graph's solve).
inline void BpEngine::marginalizeFactor(uint32_t F) {
  const uint32_t Begin = L.FactorOffset[F];
  const uint32_t Deg = L.FactorOffset[F + 1] - Begin;
  const double *Table = L.TableFlat.data() + L.TableOffset[F];
  if (Deg == 1) {
    OutF[Begin] = Table[0];
    OutT[Begin] = Table[1];
  } else if (Deg == 2) {
    const double M0T = VarToFactor[Begin];
    const double M0F = 1.0 - M0T;
    const double M1T = VarToFactor[Begin + 1];
    const double M1F = 1.0 - M1T;
    OutF[Begin] = Table[0] * M1F + Table[2] * M1T;
    OutT[Begin] = Table[1] * M1F + Table[3] * M1T;
    OutF[Begin + 1] = Table[0] * M0F + Table[1] * M0T;
    OutT[Begin + 1] = Table[2] * M0F + Table[3] * M0T;
  } else {
    marginalizeGeneral(Table, Deg, VarToFactor.data() + Begin,
                       OutT.data() + Begin, OutF.data() + Begin);
  }
}

double BpEngine::factorSweep(bool Refresh, RunStats &R) {
  // Skip compaction: factors whose inputs are quiet since an already
  // sub-tolerance update cannot move their outputs past a fraction of
  // the tolerance. Value-dependent only, so deterministic.
  uint32_t NumActive = 0, NumActiveEdges = 0;
  for (uint32_t F = 0; F != NumFactors; ++F) {
    if (!Refresh && PendingIn[F] <= SkipTolerance &&
        LastOut[F] <= Tolerance) {
      ++R.Skipped;
      continue;
    }
    ActiveFactors[NumActive++] = F;
    for (uint32_t E = L.FactorOffset[F]; E != L.FactorOffset[F + 1]; ++E)
      ActiveEdges[NumActiveEdges++] = E;
  }

  for (uint32_t A = 0; A != NumActive; ++A)
    marginalizeFactor(ActiveFactors[A]);

  // Output commit, elementwise over the compacted active-edge list.
  uint32_t I = 0;
  for (; I + 4 <= NumActiveEdges; I += 4) {
    const uint32_t *E4 = ActiveEdges.data() + I;
    const Vec4 Old = gather(FactorToVar.data(), E4);
    const Vec4 Msg = dampedUpdate(gather(OutT.data(), E4),
                                  gather(OutF.data(), E4), Old,
                                  OneMinusDamping, Damping);
    const Vec4 Ch = vabs(Msg - Old);
    for (uint32_t J = 0; J != 4; ++J) {
      FactorToVar[E4[J]] = Msg.L[J];
      EChange[E4[J]] = Ch.L[J];
    }
  }
  for (; I != NumActiveEdges; ++I) {
    const uint32_t E = ActiveEdges[I];
    const double Old = FactorToVar[E];
    const double Msg =
        dampedUpdate(OutT[E], OutF[E], Old, OneMinusDamping, Damping);
    FactorToVar[E] = Msg;
    EChange[E] = std::fabs(Msg - Old);
  }

  // Wrap-up: per-factor max change (order-free), scheduling state reset.
  double Delta = 0.0;
  for (uint32_t A = 0; A != NumActive; ++A) {
    const uint32_t F = ActiveFactors[A];
    double MaxChange = 0.0;
    for (uint32_t E = L.FactorOffset[F]; E != L.FactorOffset[F + 1]; ++E) {
      const double Ch = EChange[E];
      MaxChange = MaxChange > Ch ? MaxChange : Ch;
    }
    Delta = Delta > MaxChange ? Delta : MaxChange;
    PendingIn[F] = 0.0;
    LastOut[F] = MaxChange;
    R.Updates += L.FactorOffset[F + 1] - L.FactorOffset[F];
  }
  return Delta;
}

//===----------------------------------------------------------------------===//
// The iteration loop
//===----------------------------------------------------------------------===//

RunStats BpEngine::run(const SumProductSolver::Options &Opts) {
  Damping = Opts.Damping;
  OneMinusDamping = 1.0 - Opts.Damping;
  Tolerance = Opts.Tolerance;
  SkipTolerance = 0.5 * Opts.Tolerance;
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
    varMessages();
    logDomainFixup();
    const double D1 = varScatter();
    R.Updates += NumEdges;
    const double D2 = factorSweep(Refresh, R);
    R.Delta = D1 > D2 ? D1 : D2;
  }
  return R;
}

void BpEngine::beliefs(Marginals &Out, Marginals *GraphLikelihood) const {
  Out.assign(NumVars, 0.5);
  if (GraphLikelihood)
    GraphLikelihood->assign(NumVars, 0.5);
  for (uint32_t Var = 0; Var != NumVars; ++Var) {
    double True = Priors[Var];
    double False = 1.0 - True;
    double GraphTrue = 1.0, GraphFalse = 1.0;
    for (uint32_t I = L.VarOffset[Var]; I != L.VarOffset[Var + 1]; ++I) {
      const double In = FactorToVar[L.VarEdges[I]];
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
