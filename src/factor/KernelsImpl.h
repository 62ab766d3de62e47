//===- KernelsImpl.h - Backend-generic solver kernel bodies ------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel bodies, templated over a 4-lane vector Traits class. Each
/// backend TU (KernelsScalar.cpp, KernelsAvx2.cpp, KernelsNeon.cpp)
/// defines its Traits in an anonymous namespace and instantiates these
/// templates with it, so every instantiation has internal linkage: an
/// AVX2-compiled body can never leak out of its TU to satisfy a baseline
/// reference (the COMDAT hazard described in Kernels.h).
///
/// Byte-identity across backends rests on three properties of the code
/// below, which any edit must preserve:
///
///  1. Lanes are independent outputs. Wherever four elements are
///     processed per step, each element's own FP operation sequence is
///     exactly what the scalar tail performs for it.
///  2. Reductions use a fixed 4-lane strided tree: lane j accumulates
///     elements j, j+4, j+8, ... and the final combine is always
///     (L0 op L1) op (L2 op L3), in the vector path and the scalar
///     backend alike.
///  3. Where a lane must sit out of an accumulation, the neutral element
///     is applied instead (adding +0.0 and multiplying by 1.0 are exact
///     for the non-negative quantities involved), so tail padding and
///     selector masks never perturb a value.
///
/// The Traits contract (all static): Vec (4 doubles); broadcast, zero,
/// load, store, setr, gather(base, uint32 idx[4]); add, sub, mul, div,
/// min, max, abs; selectGt0(S, A, B) = lane S>0 ? A : B;
/// blend<M>(A, B) = lane j: (M>>j)&1 ? B : A;
/// lo128(A, B) = [A0, A1, B0, B1] and hi128(A, B) = [A2, A3, B2, B3];
/// shuffle<I0, I1>(A, B) = [A[I0], B[I1], A[2+I0], B[2+I1]] (the
/// vshufpd lane pattern, for the pairwise-factor fast path);
/// pair2(base, i, j) = [base[i], base[i+1], base[j], base[j+1]] over a
/// float base, each lane widened to double (exact);
/// pairLo(base, i) = [base[i], base[i+1], 1.0, 1.0] and pairHi the
/// mirrored half (for the Gibbs pair-table kernel). min/max must follow
/// the x86 minpd/maxpd convention (A cmp B ? A : B, i.e. B on equality)
/// — the scalar ternaries here are written to match it.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_KERNELSIMPL_H
#define ANEK_FACTOR_KERNELSIMPL_H

#include "factor/Kernels.h"

#include <cstring>

namespace anek {
namespace kern {
namespace impl {

/// clampProb / Solvers.cpp clampFast, duplicated with internal linkage
/// (COMDAT safety). The branch form and the vector min/max form agree
/// bit-for-bit for the non-NaN inputs BP produces.
static inline double clampMsg(double P) {
  if (P < MessageEps)
    return MessageEps;
  if (P > 1.0 - MessageEps)
    return 1.0 - MessageEps;
  return P;
}

/// |X| by clearing the sign bit — exactly what std::fabs and the vector
/// abs do. Written out so no libm/std inline is referenced from an
/// arch-flagged TU, and so -0.0 maps to +0.0 in every backend (a ternary
/// would keep -0.0 and let a "max so far" comparison latch a negative
/// zero in one backend but not another).
static inline double absBits(double X) {
  uint64_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  Bits &= 0x7FFFFFFFFFFFFFFFULL;
  std::memcpy(&X, &Bits, sizeof(X));
  return X;
}

/// BP phase-1 passes A-C for variables [VB, VE): see Kernels.h.
///
/// Structure: pass A gathers and clamps incoming factor->var messages,
/// pass B forms per-variable exclusive prefix/suffix products (the
/// prefix walk folds its running value into the suffix array in place,
/// SufT[P] = PreT * SufT[P] — the multiplication pass C used to do
/// from separate arrays), pass C is the damped update. Sum == 0 lanes
/// divide by 1.0 instead (exact no-op) and select 0.5. The previous
/// outgoing message is read from NewMsg[P], not gathered from
/// VarToFactor: the commit scattered NewMsg[P] there last iteration
/// (and both start at 0.5), so the values are identical by induction.
///
/// With Commit (the driver's steady state), the ClampT/ClampF and
/// NewMsg arrays drop out entirely: the per-variable walks gather
/// FactorToVar and re-clamp on the fly (clampMsg agrees bit-for-bit
/// with the vector min/max clamp, and clamping twice is exact), the
/// previous outgoing message is gathered from VarToFactor itself
/// (identical to NewMsg[P] by the induction above), and pass D fuses
/// into pass C: the change maxes in registers (max over non-NaN
/// doubles is exactly order-free, so the strided tree matches any
/// scalar running max bit-for-bit) and the committed message scatters
/// in the same loop. That removes the Clamp stores plus their two
/// re-reads and the NewMsg store/load round-trips — five full streams
/// — at the cost of one extra FactorToVar gather, which is what lets
/// the memory-bound large configs scale. A fully per-variable form
/// (Clamp/Suf scratch rebased to an L1-resident row) was tried and
/// regressed: per-row loop overhead outweighs the stream savings at
/// these degrees, so the passes stay flat over the span.
template <class T>
double bpVarMessagesT(const BpView &V, const BpState &S, const BpConsts &C,
                      uint32_t VB, uint32_t VE, bool Commit) {
  typedef typename T::Vec Vec;
  const Vec Eps = T::broadcast(MessageEps);
  const Vec OneMinusEps = T::broadcast(1.0 - MessageEps);
  const Vec One = T::broadcast(1.0);
  const Vec Half = T::broadcast(0.5);
  const Vec Damp = T::broadcast(C.Damping);
  const Vec OneMinusDamp = T::broadcast(C.OneMinusDamping);

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
        RunT = clampMsg(In) * RunT;
        RunF = clampMsg(1.0 - In) * RunF;
      }
      double PreT = V.Priors[Var];
      double PreF = 1.0 - PreT;
      for (uint32_t P = B; P != E; ++P) {
        S.SufT[P] = PreT * S.SufT[P];
        S.SufF[P] = PreF * S.SufF[P];
        const double In = S.FactorToVar[V.VarEdges[P]];
        PreT *= clampMsg(In);
        PreF *= clampMsg(1.0 - In);
      }
    }
    // Pass C with the fused commit scatter and change max. Old comes
    // from VarToFactor (== NewMsg by induction); the gather touches
    // the same lines the scatter is about to own, so it is nearly
    // free, and NewMsg is never read or written.
    Vec MaxV = T::zero();
    uint32_t P = PB;
    for (; P + 4 <= PE; P += 4) {
      const Vec True = T::load(S.SufT + P);
      const Vec False = T::load(S.SufF + P);
      const Vec Sum = T::add(True, False);
      const Vec Quot = T::div(True, T::selectGt0(Sum, Sum, One));
      const Vec Undamped = T::selectGt0(Sum, Quot, Half);
      const Vec Old = T::gather(S.VarToFactor, V.VarEdges + P);
      const Vec NewMsg =
          T::add(T::mul(OneMinusDamp, Undamped), T::mul(Damp, Old));
      double NewL[4];
      T::store(NewL, NewMsg);
      S.VarToFactor[V.VarEdges[P]] = NewL[0];
      S.VarToFactor[V.VarEdges[P + 1]] = NewL[1];
      S.VarToFactor[V.VarEdges[P + 2]] = NewL[2];
      S.VarToFactor[V.VarEdges[P + 3]] = NewL[3];
      MaxV = T::max(MaxV, T::abs(T::sub(NewMsg, Old)));
    }
    double L[4];
    T::store(L, MaxV);
    const double M01 = L[0] > L[1] ? L[0] : L[1];
    const double M23 = L[2] > L[3] ? L[2] : L[3];
    double Delta = M01 > M23 ? M01 : M23;
    for (; P != PE; ++P) {
      const double True = S.SufT[P];
      const double False = S.SufF[P];
      const double Sum = True + False;
      const double Undamped = Sum > 0 ? True / Sum : 0.5;
      const double Old = S.VarToFactor[V.VarEdges[P]];
      const double NewMsg =
          C.OneMinusDamping * Undamped + C.Damping * Old;
      S.VarToFactor[V.VarEdges[P]] = NewMsg;
      const double Ch = absBits(NewMsg - Old);
      Delta = Delta > Ch ? Delta : Ch;
    }
    return Delta;
  }

  // Pass A: gather incoming factor->var messages and clamp both
  // polarities. Elementwise over positions; lane-independent.
  {
    uint32_t P = PB;
    for (; P + 4 <= PE; P += 4) {
      const Vec In = T::gather(S.FactorToVar, V.VarEdges + P);
      T::store(S.ClampT + P, T::min(T::max(In, Eps), OneMinusEps));
      T::store(S.ClampF + P,
               T::min(T::max(T::sub(One, In), Eps), OneMinusEps));
    }
    for (; P != PE; ++P) {
      const double In = S.FactorToVar[V.VarEdges[P]];
      S.ClampT[P] = clampMsg(In);
      S.ClampF[P] = clampMsg(1.0 - In);
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
  // log-domain fixup and BpVarScatter.
  uint32_t P = PB;
  for (; P + 4 <= PE; P += 4) {
    const Vec True = T::load(S.SufT + P);
    const Vec False = T::load(S.SufF + P);
    const Vec Sum = T::add(True, False);
    const Vec Quot = T::div(True, T::selectGt0(Sum, Sum, One));
    const Vec Undamped = T::selectGt0(Sum, Quot, Half);
    const Vec Old = T::load(S.NewMsg + P);
    const Vec NewMsg =
        T::add(T::mul(OneMinusDamp, Undamped), T::mul(Damp, Old));
    T::store(S.NewMsg + P, NewMsg);
    T::store(S.Change + P, T::abs(T::sub(NewMsg, Old)));
  }
  for (; P != PE; ++P) {
    const double True = S.SufT[P];
    const double False = S.SufF[P];
    const double Sum = True + False;
    const double Undamped = Sum > 0 ? True / Sum : 0.5;
    const double Old = S.NewMsg[P];
    const double NewMsg =
        C.OneMinusDamping * Undamped + C.Damping * Old;
    S.NewMsg[P] = NewMsg;
    S.Change[P] = absBits(NewMsg - Old);
  }
  return 0.0;
}

/// BP phase-1 pass D: commit NewMsg, accumulate residual-scheduling
/// pressure in ascending position order, return max change. The
/// scheduling path is scalar in every backend (scatter-add with repeated
/// factor targets); the unscheduled path takes the Change max with the
/// standard strided lane tree — max over non-NaN doubles is exactly
/// order-free, so the vector reduction is byte-identical to the scalar
/// running max — and commits four messages per step.
template <class T>
double bpVarScatterT(const BpView &V, const BpState &S, const BpConsts &,
                     uint32_t VB, uint32_t VE, bool Scheduling) {
  typedef typename T::Vec Vec;
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
  } else {
    Vec MaxV = T::zero();
    uint32_t P = PB;
    for (; P + 4 <= PE; P += 4) {
      MaxV = T::max(MaxV, T::load(S.Change + P));
      S.VarToFactor[V.VarEdges[P]] = S.NewMsg[P];
      S.VarToFactor[V.VarEdges[P + 1]] = S.NewMsg[P + 1];
      S.VarToFactor[V.VarEdges[P + 2]] = S.NewMsg[P + 2];
      S.VarToFactor[V.VarEdges[P + 3]] = S.NewMsg[P + 3];
    }
    double L[4];
    T::store(L, MaxV);
    const double M01 = L[0] > L[1] ? L[0] : L[1];
    const double M23 = L[2] > L[3] ? L[2] : L[3];
    Delta = M01 > M23 ? M01 : M23;
    for (; P != PE; ++P) {
      const double Ch = S.Change[P];
      S.VarToFactor[V.VarEdges[P]] = S.NewMsg[P];
      Delta = Delta > Ch ? Delta : Ch;
    }
  }
  return Delta;
}

/// General-arity (3..16) factor marginalization: one table sweep, four
/// entries per step. Entries i, i+1, i+2, i+3 occupy lanes 0-3; slot-0
/// and slot-1 selector weights vary within the group ([F,T,F,T] and
/// [F,F,T,T]), higher slots are group-constant broadcasts. Per-slot
/// accumulators keep the fixed strided lane tree; lanes whose entry does
/// not feed a given polarity add +0.0 (exact for these non-negative
/// contributions).
template <class T>
void marginalizeGeneralT(const double *Table, uint32_t Deg,
                         const double *Msg, double *OutT, double *OutF) {
  typedef typename T::Vec Vec;
  double MsgT[16], MsgF[16];
  for (uint32_t K = 0; K != Deg; ++K) {
    MsgT[K] = Msg[K];
    MsgF[K] = 1.0 - MsgT[K];
  }
  Vec AccT[16], AccF[16];
  for (uint32_t K = 0; K != Deg; ++K)
    AccT[K] = AccF[K] = T::zero();
  Vec Sel[16];
  Sel[0] = T::setr(MsgF[0], MsgT[0], MsgF[0], MsgT[0]);
  Sel[1] = T::setr(MsgF[1], MsgF[1], MsgT[1], MsgT[1]);
  Vec Suf[17];
  Suf[Deg] = T::broadcast(1.0);
  const size_t TableSize = size_t{1} << Deg; // >= 8, so no tail.
  for (size_t Index = 0; Index != TableSize; Index += 4) {
    for (uint32_t K = 2; K != Deg; ++K)
      Sel[K] = T::broadcast(((Index >> K) & 1) ? MsgT[K] : MsgF[K]);
    // Same prefix/suffix grouping as the scalar kernel: Suf right-folds
    // from 1.0, Pre left-folds from the table weight.
    for (uint32_t K = Deg; K-- != 0;)
      Suf[K] = T::mul(Suf[K + 1], Sel[K]);
    Vec Pre = T::load(Table + Index);
    for (uint32_t K = 0; K != Deg; ++K) {
      const Vec Contrib = T::mul(Pre, Suf[K + 1]);
      if (K == 0) {
        AccT[0] = T::add(AccT[0], T::template blend<0xA>(T::zero(), Contrib));
        AccF[0] = T::add(AccF[0], T::template blend<0x5>(T::zero(), Contrib));
      } else if (K == 1) {
        AccT[1] = T::add(AccT[1], T::template blend<0xC>(T::zero(), Contrib));
        AccF[1] = T::add(AccF[1], T::template blend<0x3>(T::zero(), Contrib));
      } else if ((Index >> K) & 1) {
        AccT[K] = T::add(AccT[K], Contrib);
      } else {
        AccF[K] = T::add(AccF[K], Contrib);
      }
      Pre = T::mul(Pre, Sel[K]);
    }
  }
  for (uint32_t K = 0; K != Deg; ++K) {
    double LT[4], LF[4];
    T::store(LT, AccT[K]);
    T::store(LF, AccF[K]);
    OutT[K] = (LT[0] + LT[1]) + (LT[2] + LT[3]);
    OutF[K] = (LF[0] + LF[1]) + (LF[2] + LF[3]);
  }
}

/// One factor's marginalization into OutT/OutF. Arity 1/2 keep the
/// closed forms of the scalar kernel verbatim (scalar in every backend:
/// two or four multiplies do not amortize a vector setup); arity >= 3
/// takes the table sweep.
template <class T>
inline void marginalizeFactorT(const BpView &V, const BpState &S, uint32_t F) {
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
    marginalizeGeneralT<T>(Table, Deg, S.VarToFactor + Begin,
                           S.OutT + Begin, S.OutF + Begin);
  }
}

/// BP phase 2 when every factor in [FB, FE) runs (scheduling off): no
/// skip compaction, and no index indirection in the commits. Two
/// adjacent pairwise factors (the dominant shape constraint generation
/// emits) marginalize AND commit entirely in registers: their four
/// edges are contiguous, the four closed-form outputs assemble from
/// two table loads with the shuffle network annotated below, and
/// OutT/OutF are never touched — the round-trip through them and the
/// separate commit pass exist only for the general path. Each lane's
/// operation sequence is exactly the scalar closed form in
/// marginalizeFactorT (multiply, multiply, add; MF = 1 - MT), so the
/// message bytes are identical to the generic path's. EChange and the
/// PendingIn/LastOut bookkeeping are skipped outright: with scheduling
/// off nothing ever reads them (BpEngine state is per solve), and the
/// iteration residual reduces to the global change max — exactly
/// order-free, taken with the strided lane tree in registers.
template <class T>
double bpFactorDenseT(const BpView &V, const BpState &S, const BpConsts &C,
                      uint32_t FB, uint32_t FE, uint64_t *Updates) {
  typedef typename T::Vec Vec;
  const Vec One = T::broadcast(1.0);
  const Vec Half = T::broadcast(0.5);
  const Vec Damp = T::broadcast(C.Damping);
  const Vec OneMinusDamp = T::broadcast(C.OneMinusDamping);
  Vec MaxV = T::zero();
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
      // shuffle picks the table weight the scalar closed form pairs
      // with that operand.
      const Vec TA = T::load(V.TableFlat + V.TableOffset[F]);
      const Vec TB = T::load(V.TableFlat + V.TableOffset[F + 1]);
      const Vec P = T::lo128(TA, TB);
      const Vec Q = T::hi128(TA, TB);
      const Vec M = T::load(S.VarToFactor + Begin);
      const Vec MT = T::template shuffle<1, 0>(M, M);
      const Vec MF = T::sub(One, MT);
      const Vec OutT = T::add(T::mul(T::template shuffle<1, 0>(P, Q), MF),
                              T::mul(T::template shuffle<1, 1>(Q, Q), MT));
      const Vec OutF = T::add(T::mul(T::template shuffle<0, 0>(P, P), MF),
                              T::mul(T::template shuffle<0, 1>(Q, P), MT));
      const Vec Sum = T::add(OutT, OutF);
      const Vec Quot = T::div(OutT, T::selectGt0(Sum, Sum, One));
      const Vec Undamped = T::selectGt0(Sum, Quot, Half);
      const Vec Old = T::load(S.FactorToVar + Begin);
      const Vec NewMsg =
          T::add(T::mul(OneMinusDamp, Undamped), T::mul(Damp, Old));
      T::store(S.FactorToVar + Begin, NewMsg);
      MaxV = T::max(MaxV, T::abs(T::sub(NewMsg, Old)));
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
      // tree in every backend.
      const double *Tab = V.TableFlat + V.TableOffset[F];
      const Vec M = T::load(S.VarToFactor + Begin);
      const Vec MT = T::template shuffle<1, 0>(M, M);
      const Vec MF = T::sub(One, MT);
      double ML[4];
      T::store(ML, M);
      const Vec A = T::setr((1.0 - ML[0]) * (1.0 - ML[1]),
                            ML[0] * (1.0 - ML[1]), (1.0 - ML[0]) * ML[1],
                            ML[0] * ML[1]);
      const Vec B = T::setr((1.0 - ML[2]) * (1.0 - ML[3]),
                            ML[2] * (1.0 - ML[3]), (1.0 - ML[2]) * ML[3],
                            ML[2] * ML[3]);
      const Vec R0 = T::load(Tab);
      const Vec R1 = T::load(Tab + 4);
      const Vec R2 = T::load(Tab + 8);
      const Vec R3 = T::load(Tab + 12);
      double AL[4], BL[4];
      T::store(AL, A);
      T::store(BL, B);
      const Vec RowAgg =
          T::add(T::add(T::mul(R0, T::broadcast(BL[0])),
                        T::mul(R1, T::broadcast(BL[1]))),
                 T::add(T::mul(R2, T::broadcast(BL[2])),
                        T::mul(R3, T::broadcast(BL[3]))));
      const Vec T0 = T::template shuffle<0, 0>(R0, R1);
      const Vec T1 = T::template shuffle<1, 1>(R0, R1);
      const Vec T2 = T::template shuffle<0, 0>(R2, R3);
      const Vec T3 = T::template shuffle<1, 1>(R2, R3);
      const Vec ColAgg =
          T::add(T::add(T::mul(T::lo128(T0, T2), T::broadcast(AL[0])),
                        T::mul(T::lo128(T1, T3), T::broadcast(AL[1]))),
                 T::add(T::mul(T::hi128(T0, T2), T::broadcast(AL[2])),
                        T::mul(T::hi128(T1, T3), T::broadcast(AL[3]))));
      const Vec U = T::lo128(RowAgg, ColAgg);
      const Vec W = T::hi128(RowAgg, ColAgg);
      const Vec OutT = T::add(T::mul(T::template shuffle<1, 0>(U, W), MF),
                              T::mul(T::template shuffle<1, 1>(W, W), MT));
      const Vec OutF = T::add(T::mul(T::template shuffle<0, 0>(U, U), MF),
                              T::mul(T::template shuffle<0, 1>(W, U), MT));
      const Vec Sum = T::add(OutT, OutF);
      const Vec Quot = T::div(OutT, T::selectGt0(Sum, Sum, One));
      const Vec Undamped = T::selectGt0(Sum, Quot, Half);
      const Vec Old = T::load(S.FactorToVar + Begin);
      const Vec NewMsg =
          T::add(T::mul(OneMinusDamp, Undamped), T::mul(Damp, Old));
      T::store(S.FactorToVar + Begin, NewMsg);
      MaxV = T::max(MaxV, T::abs(T::sub(NewMsg, Old)));
      ++F;
      continue;
    }
    // General path: marginalize through OutT/OutF (still L1-hot at
    // per-factor granularity), then commit this factor's edges.
    marginalizeFactorT<T>(V, S, F);
    const uint32_t EE = Begin + Deg;
    uint32_t E = Begin;
    for (; E + 4 <= EE; E += 4) {
      const Vec OutT = T::load(S.OutT + E);
      const Vec OutF = T::load(S.OutF + E);
      const Vec Sum = T::add(OutT, OutF);
      const Vec Quot = T::div(OutT, T::selectGt0(Sum, Sum, One));
      const Vec Undamped = T::selectGt0(Sum, Quot, Half);
      const Vec Old = T::load(S.FactorToVar + E);
      const Vec NewMsg =
          T::add(T::mul(OneMinusDamp, Undamped), T::mul(Damp, Old));
      T::store(S.FactorToVar + E, NewMsg);
      MaxV = T::max(MaxV, T::abs(T::sub(NewMsg, Old)));
    }
    for (; E != EE; ++E) {
      const double Sum = S.OutT[E] + S.OutF[E];
      const double Undamped = Sum > 0 ? S.OutT[E] / Sum : 0.5;
      const double Old = S.FactorToVar[E];
      const double NewMsg = C.OneMinusDamping * Undamped + C.Damping * Old;
      S.FactorToVar[E] = NewMsg;
      const double Ch = absBits(NewMsg - Old);
      Delta = Delta > Ch ? Delta : Ch;
    }
    ++F;
  }
  double L[4];
  T::store(L, MaxV);
  const double M01 = L[0] > L[1] ? L[0] : L[1];
  const double M23 = L[2] > L[3] ? L[2] : L[3];
  const double MV = M01 > M23 ? M01 : M23;
  Delta = Delta > MV ? Delta : MV;
  *Updates += V.FactorOffset[FE] - V.FactorOffset[FB];
  return Delta;
}

/// BP phase 2 for factors [FB, FE): see Kernels.h.
template <class T>
double bpFactorSweepT(const BpView &V, const BpState &S, const BpConsts &C,
                      uint32_t FB, uint32_t FE, bool Scheduling, bool Refresh,
                      uint64_t *Updates, uint64_t *Skipped) {
  typedef typename T::Vec Vec;
  if (!Scheduling)
    return bpFactorDenseT<T>(V, S, C, FB, FE, Updates);

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
    marginalizeFactorT<T>(V, S, S.ActiveFactors[A]);

  // Output commit, elementwise over the compacted active-edge list.
  {
    const Vec One = T::broadcast(1.0);
    const Vec Half = T::broadcast(0.5);
    const Vec Damp = T::broadcast(C.Damping);
    const Vec OneMinusDamp = T::broadcast(C.OneMinusDamping);
    uint32_t I = 0;
    for (; I + 4 <= NumActiveEdges; I += 4) {
      const uint32_t *E4 = S.ActiveEdges + I;
      const Vec OutT = T::gather(S.OutT, E4);
      const Vec OutF = T::gather(S.OutF, E4);
      const Vec Sum = T::add(OutT, OutF);
      const Vec Quot = T::div(OutT, T::selectGt0(Sum, Sum, One));
      const Vec Undamped = T::selectGt0(Sum, Quot, Half);
      const Vec Old = T::gather(S.FactorToVar, E4);
      const Vec NewMsg =
          T::add(T::mul(OneMinusDamp, Undamped), T::mul(Damp, Old));
      const Vec Ch = T::abs(T::sub(NewMsg, Old));
      double NewL[4], ChL[4];
      T::store(NewL, NewMsg);
      T::store(ChL, Ch);
      for (uint32_t J = 0; J != 4; ++J) {
        S.FactorToVar[E4[J]] = NewL[J];
        S.EChange[E4[J]] = ChL[J];
      }
    }
    for (; I != NumActiveEdges; ++I) {
      const uint32_t E = S.ActiveEdges[I];
      const double Sum = S.OutT[E] + S.OutF[E];
      const double Undamped = Sum > 0 ? S.OutT[E] / Sum : 0.5;
      const double Old = S.FactorToVar[E];
      const double NewMsg =
          C.OneMinusDamping * Undamped + C.Damping * Old;
      S.FactorToVar[E] = NewMsg;
      S.EChange[E] = absBits(NewMsg - Old);
    }
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
/// (offset0 * offset2) * (offset1 * offset3) in every backend.
///
/// A flip XORs precomputed deltas into the affected neighbors'
/// PosIdx entries through the flip-adjacency CSR; the flipped
/// variable's own positions index on the OTHER scope bits only, so
/// they never appear in its own flip list. PosIdx[P] always equals
/// base(P) + 2*compact(owning factor's index), so the weights — and
/// the sampled chain — are bit-identical to recomputing the compacted
/// index from CurIndex each visit.
template <class T>
void gibbsSweepPairT(const GibbsView &V, const GibbsState &S, uint32_t VB,
                     uint32_t VE) {
  typedef typename T::Vec Vec;
  const Vec One = T::broadcast(1.0);
  for (uint32_t Var = VB; Var != VE; ++Var) {
    const uint32_t B = V.VarOffset[Var];
    const uint32_t E = V.VarOffset[Var + 1];
    Vec AccA = One, AccB = One;
    uint32_t P = B;
    for (; P + 4 <= E; P += 4) {
      AccA = T::mul(AccA, T::pair2(V.PairFlat, S.PosIdx[P], S.PosIdx[P + 1]));
      AccB =
          T::mul(AccB, T::pair2(V.PairFlat, S.PosIdx[P + 2], S.PosIdx[P + 3]));
    }
    for (uint32_t J = 0; P != E; ++P, ++J) {
      const uint32_t I = S.PosIdx[P];
      if (J == 0)
        AccA = T::mul(AccA, T::pairLo(V.PairFlat, I));
      else if (J == 1)
        AccA = T::mul(AccA, T::pairHi(V.PairFlat, I));
      else
        AccB = T::mul(AccB, T::pairLo(V.PairFlat, I));
    }
    // One vector multiply folds the A/B accumulators (lane j of C is
    // L[j]*M[j], the first level of the combine tree); the draw happens
    // before the weights are needed so the flip test is a multiply
    // (U*Sum < W1 <=> U < W1/Sum) instead of a division on the
    // loop-carried path. The flip scatter stays branchy on purpose: a
    // correctly predicted no-flip (the common steady-state case) lets
    // the next variable's PosIdx loads proceed without waiting on any
    // store, where an unconditional masked XOR would serialize every
    // variable behind store-forwarding.
    double C[4];
    T::store(C, T::mul(AccA, AccB));
    const double Prior = V.Priors[Var];
    const double W0 = (1.0 - Prior) * (C[0] * C[2]);
    const double W1 = Prior * (C[1] * C[3]);
    const double Sum = W0 + W1;
    const double U = rngUniform(*S.RngState);
    const bool NewBit = Sum > 0 ? U * Sum < W1 : U < 0.5;
    if (NewBit != static_cast<bool>(S.Assign[Var])) {
      S.Assign[Var] = NewBit;
      for (uint32_t K = V.FlipOffset[Var]; K != V.FlipOffset[Var + 1]; ++K)
        S.PosIdx[V.FlipPos[K]] ^= V.FlipDelta[K];
    }
  }
}

/// One Gibbs pass over variables [VB, VE). With pair tables built
/// (PairFlat != nullptr — a property of the graph, so every backend
/// takes the same path) the pair kernel above runs; otherwise the
/// conditional-weight product gathers from the raw factor tables with
/// the strided lane tree: lane j multiplies occurrences j, j+4, ...;
/// tails multiply into their own lane (the unused lanes stay 1.0,
/// exact); the final combine is (L0*L1)*(L2*L3) in every backend. One
/// RNG draw per variable, same stream positions in both paths.
template <class T>
void gibbsSweepT(const GibbsView &V, const GibbsState &S, uint32_t VB,
                 uint32_t VE) {
  if (V.PairFlat)
    return gibbsSweepPairT<T>(V, S, VB, VE);
  typedef typename T::Vec Vec;
  const Vec One = T::broadcast(1.0);
  for (uint32_t Var = VB; Var != VE; ++Var) {
    const uint32_t B = V.VarOffset[Var];
    const uint32_t E = V.VarOffset[Var + 1];
    Vec Acc0 = One, Acc1 = One;
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
      Acc0 = T::mul(Acc0, T::gather(V.TableFlat, Idx0));
      Acc1 = T::mul(Acc1, T::gather(V.TableFlat, Idx1));
    }
    double L0[4], L1[4];
    T::store(L0, Acc0);
    T::store(L1, Acc1);
    for (uint32_t J = 0; P != E; ++P, ++J) {
      const uint32_t Cur = S.CurIndex[V.VmFactor[P]];
      const uint32_t Mask = V.VmMask[P];
      const uint32_t TableBase = V.VmTableBase[P];
      L0[J] *= V.TableFlat[TableBase + (Cur & ~Mask)];
      L1[J] *= V.TableFlat[TableBase + (Cur | Mask)];
    }
    const double Prior = V.Priors[Var];
    const double W0 = (1.0 - Prior) * ((L0[0] * L0[1]) * (L0[2] * L0[3]));
    const double W1 = Prior * ((L1[0] * L1[1]) * (L1[2] * L1[3]));
    const double Sum = W0 + W1;
    const double U = rngUniform(*S.RngState);
    const bool NewBit = Sum > 0 ? U * Sum < W1 : U < 0.5;
    if (NewBit != static_cast<bool>(S.Assign[Var])) {
      S.Assign[Var] = NewBit;
      for (uint32_t Q = B; Q != E; ++Q)
        S.CurIndex[V.VmFactor[Q]] ^= V.VmSlotBit[Q];
    }
  }
}

} // namespace impl
} // namespace kern
} // namespace anek

#endif // ANEK_FACTOR_KERNELSIMPL_H
