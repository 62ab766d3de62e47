//===- Kernels.h - Solver kernels over the CSR edge layout -------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot solver loops (BP variable-message passes, BP factor sweeps,
/// Gibbs sweeps) as plain functions over zero-copy views of
/// FactorGraph::EdgeLayout and FactorGraph::GibbsLayout. The drivers
/// (factor/BpDriver.cpp, GibbsSolver in factor/Solvers.cpp) own the
/// per-solve state and call them directly.
///
/// The kernels process four independent outputs (edges, positions,
/// table entries) per step, and every multi-element reduction uses a
/// fixed 4-lane strided tree: lane j accumulates elements j, j+4, j+8,
/// ..., and the final combine is always (L0 op L1) op (L2 op L3). That
/// order is the arithmetic every inferred spec comes from (and the
/// in-run SOLVE memo keys on those exact bits), so it is part of the
/// kernels' contract, not an optimization detail (factor/Kernels.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_KERNELS_H
#define ANEK_FACTOR_KERNELS_H

#include "support/Rng.h"

#include <cstdint>

namespace anek {
namespace kern {

/// Variables with at least this many incident edges get their phase-1
/// messages recomputed in the log domain by the driver (a product of 64+
/// clamped probabilities can underflow to 0 and erase the signal).
constexpr uint32_t LogDomainMinDegree = 64;

/// The kernel set a run used. There is one: the results of the
/// end-to-end bench (e2e_bench/harness.cpp) are stamped with its name.
enum class Backend : int {
  Scalar = 0,
};

/// Kind of the kernel set every solve runs on.
inline Backend activeKernelBackend() { return Backend::Scalar; }

/// Human-readable name for a kernel set: "scalar".
inline const char *kernelBackendName(Backend) { return "scalar"; }

/// Read-only view of one factor graph in CSR form, aliasing
/// FactorGraph::EdgeLayout directly (zero-copy).
struct BpView {
  uint32_t NumVars = 0;
  uint32_t NumFactors = 0;
  uint32_t NumEdges = 0;
  const uint32_t *FactorOffset = nullptr; ///< NumFactors+1; edge ranges.
  const uint32_t *VarOffset = nullptr;    ///< NumVars+1; position ranges.
  const uint32_t *VarEdges = nullptr;     ///< position -> edge id.
  const uint32_t *VmFactor = nullptr;     ///< position -> owning factor.
  const uint32_t *TableOffset = nullptr;  ///< factor -> base in TableFlat.
  const double *TableFlat = nullptr;      ///< concatenated factor tables.
  const double *Priors = nullptr;         ///< per-variable prior.
};

/// Mutable per-solve state. All arrays are allocated by the driver
/// (factor/BpDriver.cpp); "position" arrays are indexed like VarEdges.
struct BpState {
  double *VarToFactor = nullptr; ///< per edge.
  double *FactorToVar = nullptr; ///< per edge.
  // Phase-1 scratch, per position. SufT/SufF hold the exclusive suffix
  // products after pass B's backward walk, then the full
  // prefix*suffix products (the unnormalized outgoing polarity
  // weights) after its forward walk folds the running prefix in.
  double *ClampT = nullptr;
  double *ClampF = nullptr;
  double *SufT = nullptr;
  double *SufF = nullptr;
  double *NewMsg = nullptr;
  double *Change = nullptr;
  // Phase-2 scratch, per edge.
  double *OutT = nullptr;
  double *OutF = nullptr;
  double *EChange = nullptr;
  // Residual-scheduling state, per factor.
  double *PendingIn = nullptr;
  double *LastOut = nullptr;
  // Phase-2 skip compaction scratch (capacity NumFactors / NumEdges).
  uint32_t *ActiveFactors = nullptr;
  uint32_t *ActiveEdges = nullptr;
};

struct BpConsts {
  double Damping = 0.0;
  double OneMinusDamping = 1.0;
  double Tolerance = 0.0;
  double SkipTolerance = 0.0;
};

/// Variable-major view for Gibbs sweeps (arrays from EdgeLayout and
/// FactorGraph::GibbsLayout).
struct GibbsView {
  uint32_t NumVars = 0;
  const uint32_t *VarOffset = nullptr;   ///< NumVars+1; position ranges.
  const uint32_t *VmFactor = nullptr;    ///< position -> owning factor.
  const uint32_t *VmMask = nullptr;      ///< position -> repeated-scope mask.
  const uint32_t *VmSlotBit = nullptr;   ///< position -> slot bit.
  const uint32_t *VmTableBase = nullptr; ///< position -> TableFlat base.
  const double *TableFlat = nullptr;
  const double *Priors = nullptr;
  /// Conditional-pair tables (GibbsLayout::PairFlat / VmPairBase /
  /// VmPairLow), or nullptr when the layout skipped them (repeated
  /// scope variables or size cap). Presence is a property of the
  /// graph, so the sweep path is too; the float entries widen to
  /// double losslessly.
  const float *PairFlat = nullptr;
  /// Flip-adjacency CSR (GibbsLayout::FlipOffset / FlipPos / FlipDelta):
  /// flipping variable X XORs FlipDelta[K] into PosIdx[FlipPos[K]] for
  /// K in [FlipOffset[X], FlipOffset[X+1]). With it the pair-path
  /// weight loop is one PosIdx load and one pair load per occurrence.
  const uint32_t *FlipOffset = nullptr;
  const uint32_t *FlipPos = nullptr;
  const uint32_t *FlipDelta = nullptr;
};

struct GibbsState {
  /// Per factor: current assignment bits. Maintained only on the
  /// TableFlat fallback path; the pair path tracks state in PosIdx.
  uint32_t *CurIndex = nullptr;
  uint8_t *Assign = nullptr; ///< per variable: current boolean state.
  Rng *Random = nullptr;     ///< one uniform draw per visited variable.
  /// Per position: current index into PairFlat (the owning factor's
  /// index with the slot bit compacted out, doubled by the pair
  /// stride, plus the position's base). The driver initializes it from
  /// CurIndex; sweeps maintain it through the flip-adjacency CSR.
  /// Null when the layout has no pair tables.
  uint32_t *PosIdx = nullptr;
};

/// BP phase-1 passes A-C for variables [VB, VE): gather+clamp incoming
/// factor->var messages, per-variable exclusive prefix/suffix products,
/// then the damped message update into NewMsg (per position).
///
/// With Commit false it does NOT write VarToFactor or compute a max —
/// it fills NewMsg/Change and returns 0.0, and the driver may
/// overwrite NewMsg/Change for high-degree variables (log domain)
/// before following up with bpVarScatter. With Commit true (the
/// steady state: no residual scheduling, no log-domain fixup pending)
/// pass C itself scatters NewMsg into VarToFactor and returns the max
/// change — pass D is fused away and Change is not even written,
/// saving three full position streams per iteration.
double bpVarMessages(const BpView &V, const BpState &S, const BpConsts &C,
                     uint32_t VB, uint32_t VE, bool Commit);

/// BP phase-1 pass D: scatter NewMsg into VarToFactor, accumulate
/// Change into PendingIn (when Scheduling) in ascending position order,
/// return the max Change over [VarOffset[VB], VarOffset[VE]). Only
/// called when bpVarMessages ran with Commit false.
double bpVarScatter(const BpView &V, const BpState &S, uint32_t VB,
                    uint32_t VE, bool Scheduling);

/// BP phase 2 for factors [FB, FE): skip-compaction (residual
/// scheduling), per-factor marginalization into OutT/OutF, damped
/// factor->var message commit, PendingIn/LastOut bookkeeping. Returns
/// the max message change; adds updated-edge / skipped-factor counts.
double bpFactorSweep(const BpView &V, const BpState &S, const BpConsts &C,
                     uint32_t FB, uint32_t FE, bool Scheduling, bool Refresh,
                     uint64_t *Updates, uint64_t *Skipped);

/// One Gibbs pass over variables [VB, VE): per variable, the 4-lane
/// conditional-weight product over incident factor tables, one RNG
/// draw, and the XOR flip scatter into CurIndex. Variables are visited
/// in ascending order, so a sweep over [0, NumVars) draws the same
/// random numbers as any split of that range into consecutive calls.
void gibbsSweep(const GibbsView &V, const GibbsState &S, uint32_t VB,
                uint32_t VE);

} // namespace kern
} // namespace anek

#endif // ANEK_FACTOR_KERNELS_H
