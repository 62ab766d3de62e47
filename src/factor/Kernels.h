//===- Kernels.h - Solver kernels over the CSR edge layout -------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot belief-propagation loops as plain functions over a zero-copy
/// view of FactorGraph::EdgeLayout. There is one path, and every call
/// covers the whole graph: the variable pass, the scatter and the
/// residual-scheduled factor sweep, in that order. The driver
/// (factor/BpDriver.cpp) owns the per-solve state and calls them
/// directly.
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

/// BP phase-1 passes A-C over every variable: gather+clamp incoming
/// factor->var messages, per-variable exclusive prefix/suffix products,
/// then the damped message update into NewMsg and its change into
/// Change (both per position). VarToFactor is not written: the driver
/// may overwrite NewMsg/Change for high-degree variables (log domain)
/// before bpVarScatter commits them.
void bpVarMessages(const BpView &V, const BpState &S, const BpConsts &C);

/// BP phase-1 pass D: scatter NewMsg into VarToFactor, accumulate
/// Change into PendingIn in ascending position order, return the max
/// Change.
double bpVarScatter(const BpView &V, const BpState &S);

/// BP phase 2 over every factor: skip-compaction (residual scheduling;
/// \p Refresh runs every factor), per-factor marginalization into
/// OutT/OutF, damped factor->var message commit, PendingIn/LastOut
/// bookkeeping. Returns the max message change; adds updated-edge /
/// skipped-factor counts.
double bpFactorSweep(const BpView &V, const BpState &S, const BpConsts &C,
                     bool Refresh, uint64_t *Updates, uint64_t *Skipped);

} // namespace kern
} // namespace anek

#endif // ANEK_FACTOR_KERNELS_H
