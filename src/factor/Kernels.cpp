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

/// [A0, A1, B0, B1].
inline Vec4 lowHalves(Vec4 A, Vec4 B) {
  return {{A.L[0], A.L[1], B.L[0], B.L[1]}};
}

/// [A2, A3, B2, B3].
inline Vec4 highHalves(Vec4 A, Vec4 B) {
  return {{A.L[2], A.L[3], B.L[2], B.L[3]}};
}

/// [A[I0], B[I1], A[2+I0], B[2+I1]]: the per-half shuffle the pairwise
/// and arity-4 factor paths assemble their operands with.
template <int I0, int I1> inline Vec4 shuffle(Vec4 A, Vec4 B) {
  return {{A.L[I0], B.L[I1], A.L[2 + I0], B.L[2 + I1]}};
}

/// [Base[I], Base[I+1], Base[J], Base[J+1]], each widened to double
/// (exact).
inline Vec4 pairs(const float *Base, uint32_t I, uint32_t J) {
  return {{static_cast<double>(Base[I]), static_cast<double>(Base[I + 1]),
           static_cast<double>(Base[J]), static_cast<double>(Base[J + 1])}};
}

/// [Base[I], Base[I+1], 1.0, 1.0].
inline Vec4 pairLow(const float *Base, uint32_t I) {
  return {{static_cast<double>(Base[I]), static_cast<double>(Base[I + 1]),
           1.0, 1.0}};
}

/// [1.0, 1.0, Base[I], Base[I+1]].
inline Vec4 pairHigh(const float *Base, uint32_t I) {
  return {{1.0, 1.0, static_cast<double>(Base[I]),
           static_cast<double>(Base[I + 1])}};
}

/// The strided tree's final max: (L0 max L1) max (L2 max L3).
inline double laneMax(Vec4 V) {
  const double M01 = V.L[0] > V.L[1] ? V.L[0] : V.L[1];
  const double M23 = V.L[2] > V.L[3] ? V.L[2] : V.L[3];
  return M01 > M23 ? M01 : M23;
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

/// BP phase 2 when every factor in [FB, FE) runs (scheduling off): no
/// skip compaction, and no index indirection in the commits. Two
/// adjacent pairwise factors (the dominant shape constraint generation
/// emits) marginalize AND commit entirely in registers: their four
/// edges are contiguous, the four closed-form outputs assemble from
/// two table loads with the shuffles annotated below, and OutT/OutF are
/// never touched — the round-trip through them and the separate commit
/// pass exist only for the general path. Each lane's operation sequence
/// is exactly the closed form in marginalizeFactor (multiply, multiply,
/// add; MF = 1 - MT), so the message bytes are identical to the general
/// path's. EChange and the PendingIn/LastOut bookkeeping are skipped
/// outright: with scheduling off nothing ever reads them (BpEngine state
/// is per solve), and the iteration residual reduces to the global
/// change max — exactly order-free, taken with the strided lane tree.
double bpFactorDense(const BpView &V, const BpState &S, const BpConsts &C,
                     uint32_t FB, uint32_t FE, uint64_t *Updates) {
  const Vec4 One = splat(1.0);
  Vec4 MaxV = splat(0.0);
  double Delta = 0.0;
  uint32_t F = FB;
  while (F != FE) {
    const uint32_t Begin = V.FactorOffset[F];
    const uint32_t Deg = V.FactorOffset[F + 1] - Begin;
    if (Deg == 2 && F + 1 != FE && V.FactorOffset[F + 2] == Begin + 4) {
      // Tables TA = [t0 t1 t2 t3], TB = [t0' t1' t2' t3'] regroup as
      // P = [t0 t1 t0' t1'], Q = [t2 t3 t2' t3']; the incoming
      // messages M = [m0 m1 m0' m1'] swap within each factor to give
      // every edge its *other* variable's message. Lane j of each
      // shuffle picks the table weight the closed form pairs with that
      // operand.
      const Vec4 TA = load(V.TableFlat + V.TableOffset[F]);
      const Vec4 TB = load(V.TableFlat + V.TableOffset[F + 1]);
      const Vec4 P = lowHalves(TA, TB);
      const Vec4 Q = highHalves(TA, TB);
      const Vec4 M = load(S.VarToFactor + Begin);
      const Vec4 MT = shuffle<1, 0>(M, M);
      const Vec4 MF = One - MT;
      const Vec4 OutT =
          shuffle<1, 0>(P, Q) * MF + shuffle<1, 1>(Q, Q) * MT;
      const Vec4 OutF =
          shuffle<0, 0>(P, P) * MF + shuffle<0, 1>(Q, P) * MT;
      const Vec4 Old = load(S.FactorToVar + Begin);
      const Vec4 NewMsg = dampedUpdate(OutT, OutF, Old, C);
      store(S.FactorToVar + Begin, NewMsg);
      MaxV = vmax(MaxV, vabs(NewMsg - Old));
      F += 2;
      continue;
    }
    if (Deg == 4) {
      // Arity-4 factor, marginalized by pair decomposition instead of
      // the 16-entry general sweep. With A[r] the four slot-0/1
      // assignment products (r = b0 + 2*b1) and B[c] the slot-2/3
      // ones, the table splits into rows R_c = Table[4c..4c+3]:
      //   RowAgg[r] = sum_c R_c[r] * B[c]   (slots 2,3 summed out)
      //   ColAgg[c] = sum_r R_c[r] * A[r]   (slots 0,1 summed out)
      // and each edge's two outputs are closed forms over one
      // aggregate and the OTHER variable of its own pair — the same
      // two-term shape as the pairwise path, assembled with the same
      // shuffles. Both sums use the fixed (0*x + 1*y) + (2*z + 3*w)
      // tree.
      const double *Tab = V.TableFlat + V.TableOffset[F];
      const Vec4 M = load(S.VarToFactor + Begin);
      const Vec4 MT = shuffle<1, 0>(M, M);
      const Vec4 MF = One - MT;
      const double *ML = M.L;
      const double AL[4] = {(1.0 - ML[0]) * (1.0 - ML[1]),
                            ML[0] * (1.0 - ML[1]), (1.0 - ML[0]) * ML[1],
                            ML[0] * ML[1]};
      const double BL[4] = {(1.0 - ML[2]) * (1.0 - ML[3]),
                            ML[2] * (1.0 - ML[3]), (1.0 - ML[2]) * ML[3],
                            ML[2] * ML[3]};
      const Vec4 R0 = load(Tab);
      const Vec4 R1 = load(Tab + 4);
      const Vec4 R2 = load(Tab + 8);
      const Vec4 R3 = load(Tab + 12);
      const Vec4 RowAgg = (R0 * splat(BL[0]) + R1 * splat(BL[1])) +
                          (R2 * splat(BL[2]) + R3 * splat(BL[3]));
      const Vec4 T0 = shuffle<0, 0>(R0, R1);
      const Vec4 T1 = shuffle<1, 1>(R0, R1);
      const Vec4 T2 = shuffle<0, 0>(R2, R3);
      const Vec4 T3 = shuffle<1, 1>(R2, R3);
      const Vec4 ColAgg = (lowHalves(T0, T2) * splat(AL[0]) +
                           lowHalves(T1, T3) * splat(AL[1])) +
                          (highHalves(T0, T2) * splat(AL[2]) +
                           highHalves(T1, T3) * splat(AL[3]));
      const Vec4 U = lowHalves(RowAgg, ColAgg);
      const Vec4 W = highHalves(RowAgg, ColAgg);
      const Vec4 OutT =
          shuffle<1, 0>(U, W) * MF + shuffle<1, 1>(W, W) * MT;
      const Vec4 OutF =
          shuffle<0, 0>(U, U) * MF + shuffle<0, 1>(W, U) * MT;
      const Vec4 Old = load(S.FactorToVar + Begin);
      const Vec4 NewMsg = dampedUpdate(OutT, OutF, Old, C);
      store(S.FactorToVar + Begin, NewMsg);
      MaxV = vmax(MaxV, vabs(NewMsg - Old));
      ++F;
      continue;
    }
    // General path: marginalize through OutT/OutF (still L1-hot at
    // per-factor granularity), then commit this factor's edges.
    marginalizeFactor(V, S, F);
    const uint32_t EE = Begin + Deg;
    uint32_t E = Begin;
    for (; E + 4 <= EE; E += 4) {
      const Vec4 Old = load(S.FactorToVar + E);
      const Vec4 NewMsg =
          dampedUpdate(load(S.OutT + E), load(S.OutF + E), Old, C);
      store(S.FactorToVar + E, NewMsg);
      MaxV = vmax(MaxV, vabs(NewMsg - Old));
    }
    for (; E != EE; ++E) {
      const double Old = S.FactorToVar[E];
      const double NewMsg = dampedUpdate(S.OutT[E], S.OutF[E], Old, C);
      S.FactorToVar[E] = NewMsg;
      const double Ch = std::fabs(NewMsg - Old);
      Delta = Delta > Ch ? Delta : Ch;
    }
    ++F;
  }
  const double MV = laneMax(MaxV);
  Delta = Delta > MV ? Delta : MV;
  *Updates += V.FactorOffset[FE] - V.FactorOffset[FB];
  return Delta;
}

//===----------------------------------------------------------------------===//
// Gibbs helpers
//===----------------------------------------------------------------------===//

/// Gibbs pass over the precomputed conditional-pair tables (see
/// GibbsLayout::PairFlat): position P's two conditional weights sit
/// adjacent at PairFlat[S.PosIdx[P]], a per-position current pair
/// index the sweep maintains incrementally, so each occurrence costs
/// one index load and one pair load (widened float -> double, exact)
/// plus one multiply — no per-edge index arithmetic at all. Lanes
/// hold (w0, w1) interleaved: AccA lanes are [prod-w0(offset 0),
/// prod-w1(offset 0), prod-w0(offset 1), prod-w1(offset 1)] over
/// occurrences B, B+1, B+4, B+5, ... and AccB the same for offsets 2
/// and 3. Tail occurrences multiply into the accumulator half their
/// in-group offset owns (unused halves stay 1.0, exact), and the final
/// per-polarity combine is the fixed two-level tree
/// (offset0 * offset2) * (offset1 * offset3).
///
/// A flip XORs precomputed deltas into the affected neighbors'
/// PosIdx entries through the flip-adjacency CSR; the flipped
/// variable's own positions index on the OTHER scope bits only, so
/// they never appear in its own flip list. PosIdx[P] always equals
/// base(P) + 2*compact(owning factor's index), so the weights — and
/// the sampled chain — are bit-identical to recomputing the compacted
/// index from CurIndex each visit.
void gibbsSweepPairs(const GibbsView &V, const GibbsState &S, uint32_t VB,
                     uint32_t VE) {
  const Vec4 One = splat(1.0);
  for (uint32_t Var = VB; Var != VE; ++Var) {
    const uint32_t B = V.VarOffset[Var];
    const uint32_t E = V.VarOffset[Var + 1];
    Vec4 AccA = One, AccB = One;
    uint32_t P = B;
    for (; P + 4 <= E; P += 4) {
      AccA = AccA * pairs(V.PairFlat, S.PosIdx[P], S.PosIdx[P + 1]);
      AccB = AccB * pairs(V.PairFlat, S.PosIdx[P + 2], S.PosIdx[P + 3]);
    }
    for (uint32_t J = 0; P != E; ++P, ++J) {
      const uint32_t I = S.PosIdx[P];
      if (J == 0)
        AccA = AccA * pairLow(V.PairFlat, I);
      else if (J == 1)
        AccA = AccA * pairHigh(V.PairFlat, I);
      else
        AccB = AccB * pairLow(V.PairFlat, I);
    }
    // One lane-wise multiply folds the A/B accumulators (lane j of C is
    // AccA[j]*AccB[j], the first level of the combine tree); the draw
    // happens before the weights are needed so the flip test is a
    // multiply (U*Sum < W1 <=> U < W1/Sum) instead of a division on the
    // loop-carried path. The flip scatter stays branchy on purpose: a
    // correctly predicted no-flip (the common steady-state case) lets
    // the next variable's PosIdx loads proceed without waiting on any
    // store, where an unconditional masked XOR would serialize every
    // variable behind store-forwarding.
    const Vec4 C = AccA * AccB;
    const double Prior = V.Priors[Var];
    const double W0 = (1.0 - Prior) * (C.L[0] * C.L[2]);
    const double W1 = Prior * (C.L[1] * C.L[3]);
    const double Sum = W0 + W1;
    const double U = S.Random->uniform();
    const bool NewBit = Sum > 0 ? U * Sum < W1 : U < 0.5;
    if (NewBit != static_cast<bool>(S.Assign[Var])) {
      S.Assign[Var] = NewBit;
      for (uint32_t K = V.FlipOffset[Var]; K != V.FlipOffset[Var + 1]; ++K)
        S.PosIdx[V.FlipPos[K]] ^= V.FlipDelta[K];
    }
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
/// VarToFactor: the commit scattered NewMsg[P] there last iteration
/// (and both start at 0.5), so the values are identical by induction.
///
/// With Commit (the driver's steady state), the ClampT/ClampF and
/// NewMsg arrays drop out entirely: the per-variable walks gather
/// FactorToVar and re-clamp on the fly (clampProb agrees bit-for-bit
/// with the lane-wise min/max clamp, and clamping twice is exact), the
/// previous outgoing message is gathered from VarToFactor itself
/// (identical to NewMsg[P] by the induction above), and pass D fuses
/// into pass C: the change maxes in registers (max over non-NaN
/// doubles is exactly order-free, so the strided tree matches any
/// running max bit-for-bit) and the committed message scatters in the
/// same loop. That removes the Clamp stores plus their two re-reads
/// and the NewMsg store/load round-trips — five full streams — at the
/// cost of one extra FactorToVar gather, which is what lets the
/// memory-bound large configs scale. A fully per-variable form
/// (Clamp/Suf scratch rebased to an L1-resident row) was tried and
/// regressed: per-row loop overhead outweighs the stream savings at
/// these degrees, so the passes stay flat over the span.
double bpVarMessages(const BpView &V, const BpState &S, const BpConsts &C,
                     uint32_t VB, uint32_t VE, bool Commit) {
  const uint32_t PB = V.VarOffset[VB];
  const uint32_t PE = V.VarOffset[VE];

  if (Commit) {
    // Pass B, per variable: both walks gather FactorToVar and clamp
    // on the fly (the load+clamp is off the loop-carried product
    // chain, so it overlaps), leaving Clamp untouched.
    for (uint32_t Var = VB; Var != VE; ++Var) {
      const uint32_t B = V.VarOffset[Var];
      const uint32_t E = V.VarOffset[Var + 1];
      double RunT = 1.0, RunF = 1.0;
      for (uint32_t P = E; P-- != B;) {
        S.SufT[P] = RunT;
        S.SufF[P] = RunF;
        const double In = S.FactorToVar[V.VarEdges[P]];
        RunT = clampProb(In) * RunT;
        RunF = clampProb(1.0 - In) * RunF;
      }
      double PreT = V.Priors[Var];
      double PreF = 1.0 - PreT;
      for (uint32_t P = B; P != E; ++P) {
        S.SufT[P] = PreT * S.SufT[P];
        S.SufF[P] = PreF * S.SufF[P];
        const double In = S.FactorToVar[V.VarEdges[P]];
        PreT *= clampProb(In);
        PreF *= clampProb(1.0 - In);
      }
    }
    // Pass C with the fused commit scatter and change max. Old comes
    // from VarToFactor (== NewMsg by induction); the gather touches
    // the same lines the scatter is about to own, so it is nearly
    // free, and NewMsg is never read or written.
    Vec4 MaxV = splat(0.0);
    uint32_t P = PB;
    for (; P + 4 <= PE; P += 4) {
      const Vec4 Old = gather(S.VarToFactor, V.VarEdges + P);
      const Vec4 NewMsg =
          dampedUpdate(load(S.SufT + P), load(S.SufF + P), Old, C);
      for (uint32_t J = 0; J != 4; ++J)
        S.VarToFactor[V.VarEdges[P + J]] = NewMsg.L[J];
      MaxV = vmax(MaxV, vabs(NewMsg - Old));
    }
    double Delta = laneMax(MaxV);
    for (; P != PE; ++P) {
      const double Old = S.VarToFactor[V.VarEdges[P]];
      const double NewMsg = dampedUpdate(S.SufT[P], S.SufF[P], Old, C);
      S.VarToFactor[V.VarEdges[P]] = NewMsg;
      const double Ch = std::fabs(NewMsg - Old);
      Delta = Delta > Ch ? Delta : Ch;
    }
    return Delta;
  }

  // Pass A: gather incoming factor->var messages and clamp both
  // polarities. Elementwise over positions; lane-independent.
  {
    const Vec4 One = splat(1.0);
    const Vec4 Eps = splat(ProbEps);
    const Vec4 OneMinusEps = splat(1.0 - ProbEps);
    uint32_t P = PB;
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
  for (uint32_t Var = VB; Var != VE; ++Var) {
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

  // Pass C without the commit: NewMsg/Change are left for the
  // log-domain fixup and bpVarScatter.
  uint32_t P = PB;
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
  return 0.0;
}

/// The scheduling path is one element at a time (scatter-add with
/// repeated factor targets); the unscheduled path takes the Change max
/// with the strided lane tree — max over non-NaN doubles is exactly
/// order-free, so it equals a running max — and commits four messages
/// per step.
double bpVarScatter(const BpView &V, const BpState &S, uint32_t VB,
                    uint32_t VE, bool Scheduling) {
  const uint32_t PB = V.VarOffset[VB];
  const uint32_t PE = V.VarOffset[VE];
  double Delta = 0.0;
  if (Scheduling) {
    for (uint32_t P = PB; P != PE; ++P) {
      const double Ch = S.Change[P];
      S.VarToFactor[V.VarEdges[P]] = S.NewMsg[P];
      S.PendingIn[V.VmFactor[P]] += Ch;
      Delta = Delta > Ch ? Delta : Ch;
    }
    return Delta;
  }
  Vec4 MaxV = splat(0.0);
  uint32_t P = PB;
  for (; P + 4 <= PE; P += 4) {
    MaxV = vmax(MaxV, load(S.Change + P));
    for (uint32_t J = 0; J != 4; ++J)
      S.VarToFactor[V.VarEdges[P + J]] = S.NewMsg[P + J];
  }
  Delta = laneMax(MaxV);
  for (; P != PE; ++P) {
    const double Ch = S.Change[P];
    S.VarToFactor[V.VarEdges[P]] = S.NewMsg[P];
    Delta = Delta > Ch ? Delta : Ch;
  }
  return Delta;
}

//===----------------------------------------------------------------------===//
// BP phase 2
//===----------------------------------------------------------------------===//

double bpFactorSweep(const BpView &V, const BpState &S, const BpConsts &C,
                     uint32_t FB, uint32_t FE, bool Scheduling, bool Refresh,
                     uint64_t *Updates, uint64_t *Skipped) {
  if (!Scheduling)
    return bpFactorDense(V, S, C, FB, FE, Updates);

  // Skip compaction: factors whose inputs are quiet since an already
  // sub-tolerance update cannot move their outputs past a fraction of
  // the tolerance. Value-dependent only, so deterministic.
  uint32_t NumActive = 0, NumActiveEdges = 0;
  for (uint32_t F = FB; F != FE; ++F) {
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

//===----------------------------------------------------------------------===//
// Gibbs
//===----------------------------------------------------------------------===//

/// With pair tables built (PairFlat != nullptr, a property of the graph)
/// the pair sweep above runs; otherwise the conditional-weight product
/// gathers from the raw factor tables with the strided lane tree: lane
/// j multiplies occurrences j, j+4, ...; tails multiply into their own
/// lane (the unused lanes stay 1.0, exact); the final combine is
/// (L0*L1)*(L2*L3). One RNG draw per variable, same stream positions in
/// both paths.
void gibbsSweep(const GibbsView &V, const GibbsState &S, uint32_t VB,
                uint32_t VE) {
  if (V.PairFlat)
    return gibbsSweepPairs(V, S, VB, VE);
  const Vec4 One = splat(1.0);
  for (uint32_t Var = VB; Var != VE; ++Var) {
    const uint32_t B = V.VarOffset[Var];
    const uint32_t E = V.VarOffset[Var + 1];
    Vec4 Acc0 = One, Acc1 = One;
    uint32_t P = B;
    for (; P + 4 <= E; P += 4) {
      uint32_t Idx0[4], Idx1[4];
      for (uint32_t J = 0; J != 4; ++J) {
        const uint32_t Cur = S.CurIndex[V.VmFactor[P + J]];
        const uint32_t Mask = V.VmMask[P + J];
        const uint32_t TableBase = V.VmTableBase[P + J];
        Idx0[J] = TableBase + (Cur & ~Mask);
        Idx1[J] = TableBase + (Cur | Mask);
      }
      Acc0 = Acc0 * gather(V.TableFlat, Idx0);
      Acc1 = Acc1 * gather(V.TableFlat, Idx1);
    }
    for (uint32_t J = 0; P != E; ++P, ++J) {
      const uint32_t Cur = S.CurIndex[V.VmFactor[P]];
      const uint32_t Mask = V.VmMask[P];
      const uint32_t TableBase = V.VmTableBase[P];
      Acc0.L[J] *= V.TableFlat[TableBase + (Cur & ~Mask)];
      Acc1.L[J] *= V.TableFlat[TableBase + (Cur | Mask)];
    }
    const double *L0 = Acc0.L;
    const double *L1 = Acc1.L;
    const double Prior = V.Priors[Var];
    const double W0 = (1.0 - Prior) * ((L0[0] * L0[1]) * (L0[2] * L0[3]));
    const double W1 = Prior * ((L1[0] * L1[1]) * (L1[2] * L1[3]));
    const double Sum = W0 + W1;
    const double U = S.Random->uniform();
    const bool NewBit = Sum > 0 ? U * Sum < W1 : U < 0.5;
    if (NewBit != static_cast<bool>(S.Assign[Var])) {
      S.Assign[Var] = NewBit;
      for (uint32_t Q = B; Q != E; ++Q)
        S.CurIndex[V.VmFactor[Q]] ^= V.VmSlotBit[Q];
    }
  }
}

} // namespace kern
} // namespace anek
