//===- Kernels.cpp - Solver kernels over the CSR edge layout ---------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel bodies, written against Vec4: four doubles processed as
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

#include "factor/Kernels.h"

#include "factor/FactorGraph.h"

#include <cmath>

namespace anek {
namespace kern {

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
inline Vec4 dampedUpdate(Vec4 True, Vec4 False, Vec4 Old, const BpConsts &C) {
  const Vec4 One = splat(1.0);
  const Vec4 Sum = True + False;
  const Vec4 Quot = True / selectGt0(Sum, Sum, One);
  const Vec4 Undamped = selectGt0(Sum, Quot, splat(0.5));
  return splat(C.OneMinusDamping) * Undamped + splat(C.Damping) * Old;
}

/// dampedUpdate for one message.
inline double dampedUpdate(double True, double False, double Old,
                           const BpConsts &C) {
  const double Sum = True + False;
  const double Undamped = Sum > 0 ? True / Sum : 0.5;
  return C.OneMinusDamping * Undamped + C.Damping * Old;
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

/// One factor's marginalization into OutT/OutF. Arity 1/2 take closed
/// forms (two or four multiplies do not amortize a lane setup); arity
/// >= 3 takes the table sweep.
inline void marginalizeFactor(const BpView &V, const BpState &S, uint32_t F) {
  const uint32_t Begin = V.FactorOffset[F];
  const uint32_t Deg = V.FactorOffset[F + 1] - Begin;
  const double *Table = V.TableFlat + V.TableOffset[F];
  if (Deg == 1) {
    S.OutF[Begin] = Table[0];
    S.OutT[Begin] = Table[1];
  } else if (Deg == 2) {
    const double M0T = S.VarToFactor[Begin];
    const double M0F = 1.0 - M0T;
    const double M1T = S.VarToFactor[Begin + 1];
    const double M1F = 1.0 - M1T;
    S.OutF[Begin] = Table[0] * M1F + Table[2] * M1T;
    S.OutT[Begin] = Table[1] * M1F + Table[3] * M1T;
    S.OutF[Begin + 1] = Table[0] * M0F + Table[1] * M0T;
    S.OutT[Begin + 1] = Table[2] * M0F + Table[3] * M0T;
  } else {
    marginalizeGeneral(Table, Deg, S.VarToFactor + Begin, S.OutT + Begin,
                       S.OutF + Begin);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// BP phase 1
//===----------------------------------------------------------------------===//

/// Structure: pass A gathers and clamps incoming factor->var messages,
/// pass B forms per-variable exclusive prefix/suffix products (the
/// prefix walk folds its running value into the suffix array in place,
/// SufT[P] = PreT * SufT[P]), pass C is the damped update. The previous
/// outgoing message is read from NewMsg[P], not gathered from
/// VarToFactor: bpVarScatter copied NewMsg[P] there last iteration (and
/// both start at 0.5), so the values are identical by induction. A
/// fully per-variable form (Clamp/Suf scratch rebased to an L1-resident
/// row) was tried and regressed: per-row loop overhead outweighs the
/// stream savings at these degrees, so the passes stay flat over all
/// positions.
void bpVarMessages(const BpView &V, const BpState &S, const BpConsts &C) {
  const uint32_t PE = V.NumEdges;

  // Pass A: gather incoming factor->var messages and clamp both
  // polarities. Elementwise over positions; lane-independent.
  {
    const Vec4 One = splat(1.0);
    const Vec4 Eps = splat(ProbEps);
    const Vec4 OneMinusEps = splat(1.0 - ProbEps);
    uint32_t P = 0;
    for (; P + 4 <= PE; P += 4) {
      const Vec4 In = gather(S.FactorToVar, V.VarEdges + P);
      store(S.ClampT + P, vmin(vmax(In, Eps), OneMinusEps));
      store(S.ClampF + P, vmin(vmax(One - In, Eps), OneMinusEps));
    }
    for (; P != PE; ++P) {
      const double In = S.FactorToVar[V.VarEdges[P]];
      S.ClampT[P] = clampProb(In);
      S.ClampF[P] = clampProb(1.0 - In);
    }
  }

  // Pass B, per variable at its global positions.
  for (uint32_t Var = 0; Var != V.NumVars; ++Var) {
    const uint32_t B = V.VarOffset[Var];
    const uint32_t E = V.VarOffset[Var + 1];
    double RunT = 1.0, RunF = 1.0;
    for (uint32_t P = E; P-- != B;) {
      S.SufT[P] = RunT;
      S.SufF[P] = RunF;
      RunT = S.ClampT[P] * RunT;
      RunF = S.ClampF[P] * RunF;
    }
    double PreT = V.Priors[Var];
    double PreF = 1.0 - PreT;
    for (uint32_t P = B; P != E; ++P) {
      S.SufT[P] = PreT * S.SufT[P];
      S.SufF[P] = PreF * S.SufF[P];
      PreT *= S.ClampT[P];
      PreF *= S.ClampF[P];
    }
  }

  // Pass C: NewMsg/Change are left for the log-domain fixup and
  // bpVarScatter.
  uint32_t P = 0;
  for (; P + 4 <= PE; P += 4) {
    const Vec4 Old = load(S.NewMsg + P);
    const Vec4 NewMsg =
        dampedUpdate(load(S.SufT + P), load(S.SufF + P), Old, C);
    store(S.NewMsg + P, NewMsg);
    store(S.Change + P, vabs(NewMsg - Old));
  }
  for (; P != PE; ++P) {
    const double Old = S.NewMsg[P];
    const double NewMsg = dampedUpdate(S.SufT[P], S.SufF[P], Old, C);
    S.NewMsg[P] = NewMsg;
    S.Change[P] = std::fabs(NewMsg - Old);
  }
}

/// One element at a time: PendingIn is a scatter-add with repeated
/// factor targets.
double bpVarScatter(const BpView &V, const BpState &S) {
  const uint32_t PE = V.NumEdges;
  double Delta = 0.0;
  for (uint32_t P = 0; P != PE; ++P) {
    const double Ch = S.Change[P];
    S.VarToFactor[V.VarEdges[P]] = S.NewMsg[P];
    S.PendingIn[V.VmFactor[P]] += Ch;
    Delta = Delta > Ch ? Delta : Ch;
  }
  return Delta;
}

//===----------------------------------------------------------------------===//
// BP phase 2
//===----------------------------------------------------------------------===//

double bpFactorSweep(const BpView &V, const BpState &S, const BpConsts &C,
                     bool Refresh, uint64_t *Updates, uint64_t *Skipped) {
  // Skip compaction: factors whose inputs are quiet since an already
  // sub-tolerance update cannot move their outputs past a fraction of
  // the tolerance. Value-dependent only, so deterministic.
  uint32_t NumActive = 0, NumActiveEdges = 0;
  for (uint32_t F = 0; F != V.NumFactors; ++F) {
    if (!Refresh && S.PendingIn[F] <= C.SkipTolerance &&
        S.LastOut[F] <= C.Tolerance) {
      ++*Skipped;
      continue;
    }
    S.ActiveFactors[NumActive++] = F;
    for (uint32_t E = V.FactorOffset[F]; E != V.FactorOffset[F + 1]; ++E)
      S.ActiveEdges[NumActiveEdges++] = E;
  }

  for (uint32_t A = 0; A != NumActive; ++A)
    marginalizeFactor(V, S, S.ActiveFactors[A]);

  // Output commit, elementwise over the compacted active-edge list.
  uint32_t I = 0;
  for (; I + 4 <= NumActiveEdges; I += 4) {
    const uint32_t *E4 = S.ActiveEdges + I;
    const Vec4 Old = gather(S.FactorToVar, E4);
    const Vec4 NewMsg =
        dampedUpdate(gather(S.OutT, E4), gather(S.OutF, E4), Old, C);
    const Vec4 Ch = vabs(NewMsg - Old);
    for (uint32_t J = 0; J != 4; ++J) {
      S.FactorToVar[E4[J]] = NewMsg.L[J];
      S.EChange[E4[J]] = Ch.L[J];
    }
  }
  for (; I != NumActiveEdges; ++I) {
    const uint32_t E = S.ActiveEdges[I];
    const double Old = S.FactorToVar[E];
    const double NewMsg = dampedUpdate(S.OutT[E], S.OutF[E], Old, C);
    S.FactorToVar[E] = NewMsg;
    S.EChange[E] = std::fabs(NewMsg - Old);
  }

  // Wrap-up: per-factor max change (order-free), scheduling state reset.
  double Delta = 0.0;
  for (uint32_t A = 0; A != NumActive; ++A) {
    const uint32_t F = S.ActiveFactors[A];
    double MaxChange = 0.0;
    for (uint32_t E = V.FactorOffset[F]; E != V.FactorOffset[F + 1]; ++E) {
      const double Ch = S.EChange[E];
      MaxChange = MaxChange > Ch ? MaxChange : Ch;
    }
    Delta = Delta > MaxChange ? Delta : MaxChange;
    S.PendingIn[F] = 0.0;
    S.LastOut[F] = MaxChange;
    *Updates += V.FactorOffset[F + 1] - V.FactorOffset[F];
  }
  return Delta;
}

} // namespace kern
} // namespace anek
