//===- BpDriver.h - BP iteration engine over one factor graph ---*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Library-internal driver behind SumProductSolver::solve: owns the
/// per-solve message and scratch arrays over a zero-copy view of the
/// graph's EdgeLayout and runs the flooding loop through the active
/// kernel backend (factor/Kernels.h).
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_BPDRIVER_H
#define ANEK_FACTOR_BPDRIVER_H

#include "factor/Kernels.h"
#include "factor/Solvers.h"

#include <vector>

namespace anek {
namespace bp {

/// How one BpEngine::run ended: the fields SumProductSolver::solve turns
/// into its SolveReport.
struct RunStats {
  /// Max message change of the last iteration (1.0 before the first).
  double Delta = 1.0;
  unsigned Iterations = 0;
  bool DeadlineExpired = false;
  uint64_t Updates = 0;
  uint64_t Skipped = 0;
};

/// Owns the per-solve message and scratch arrays over one graph view
/// and runs the iteration loop through the active kernel backend.
class BpEngine {
public:
  explicit BpEngine(const kern::BpView &View);

  /// Runs the flooding loop until the largest message change drops to
  /// the tolerance, MaxIterations is reached, or the budget expires.
  /// \p EmitResiduals enables the per-iteration bp.residual counter
  /// samples.
  RunStats run(const SumProductSolver::Options &Opts, bool EmitResiduals);

  /// Beliefs from the final factor->var messages: the scalar-kernel
  /// epilogue verbatim.
  void beliefs(Marginals &Out, Marginals *GraphLikelihood) const;

private:
  /// Recompute NewMsg/Change in the log domain for the variables with
  /// degree >= kern::LogDomainMinDegree (linear-domain products of that
  /// many clamped messages can underflow to 0 and erase the signal).
  /// Runs in this baseline TU for every backend, so it cannot break
  /// backend byte-identity.
  void logDomainFixup(const kern::BpConsts &C);

  kern::BpView View;
  std::vector<double> VarToFactor, FactorToVar;
  std::vector<double> ClampT, ClampF, SufT, SufF, NewMsg, Change;
  std::vector<double> OutT, OutF, EChange;
  std::vector<double> PendingIn, LastOut;
  std::vector<uint32_t> ActiveFactors, ActiveEdges;
  std::vector<uint32_t> HighDegVars; ///< ascending; empty on most graphs.
  std::vector<double> LogSufT, LogSufF;
  kern::BpState State;
};

} // namespace bp
} // namespace anek

#endif // ANEK_FACTOR_BPDRIVER_H
