//===- BpDriver.h - BP iteration engine over one factor graph ---*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Library-internal engine behind SumProductSolver::solve: owns the
/// per-solve message and scratch arrays over the graph's EdgeLayout and
/// runs the flooding loop. Each iteration covers the whole graph: the
/// variable pass, the scatter and the residual-scheduled factor sweep,
/// in that order. The passes process four independent outputs per step
/// and reduce in a fixed 4-lane strided tree, the operation order every
/// inferred spec comes from (factor/BpDriver.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_BPDRIVER_H
#define ANEK_FACTOR_BPDRIVER_H

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
  uint64_t Updates = 0;
  uint64_t Skipped = 0;
};

/// Owns the per-solve message and scratch arrays over one graph's
/// EdgeLayout and runs the iteration loop on its passes.
class BpEngine {
public:
  /// Reads \p G's edge layout (building it on first use) and copies its
  /// priors; \p G must outlive the engine and not grow.
  explicit BpEngine(const FactorGraph &G);

  /// Runs the flooding loop until the largest message change drops to
  /// the tolerance or MaxIterations is reached.
  RunStats run(const SumProductSolver::Options &Opts);

  /// Beliefs from the final factor->var messages.
  void beliefs(Marginals &Out, Marginals *GraphLikelihood) const;

private:
  /// Phase-1 passes A-C over every variable: gather+clamp incoming
  /// factor->var messages, per-variable exclusive prefix/suffix
  /// products, then the damped message update into NewMsg and its
  /// change into Change (both per position). VarToFactor is not
  /// written: logDomainFixup may overwrite NewMsg/Change before
  /// varScatter commits them.
  void varMessages();

  /// Recompute NewMsg/Change in the log domain for the variables with
  /// degree >= kern::LogDomainMinDegree (linear-domain products of that
  /// many clamped messages can underflow to 0 and erase the signal).
  void logDomainFixup();

  /// Phase-1 pass D: scatter NewMsg into VarToFactor, accumulate Change
  /// into PendingIn in ascending position order, return the max Change.
  double varScatter();

  /// Phase 2 over every factor: skip-compaction (residual scheduling;
  /// \p Refresh runs every factor), per-factor marginalization into
  /// OutT/OutF, damped factor->var message commit, PendingIn/LastOut
  /// bookkeeping. Returns the max message change; adds updated-edge and
  /// skipped-factor counts to \p R.
  double factorSweep(bool Refresh, RunStats &R);

  /// One factor's marginalization into OutT/OutF.
  void marginalizeFactor(uint32_t F);

  const FactorGraph::EdgeLayout &L;
  const uint32_t NumVars, NumFactors, NumEdges;
  std::vector<double> Priors;
  std::vector<double> VarToFactor, FactorToVar; ///< per edge.
  // Phase-1 scratch, per position (indexed like VarEdges). SufT/SufF
  // hold the exclusive suffix products after pass B's backward walk,
  // then the full prefix*suffix products (the unnormalized outgoing
  // polarity weights) after its forward walk folds the running prefix
  // in.
  std::vector<double> ClampT, ClampF, SufT, SufF, NewMsg, Change;
  std::vector<double> OutT, OutF, EChange; ///< phase-2 scratch, per edge.
  std::vector<double> PendingIn, LastOut;  ///< per factor.
  /// Phase-2 skip compaction (capacity NumFactors / NumEdges).
  std::vector<uint32_t> ActiveFactors, ActiveEdges;
  std::vector<uint32_t> HighDegVars; ///< ascending; empty on most graphs.
  std::vector<double> LogSufT, LogSufF;
  // Set by run() from its options.
  double Damping = 0.0, OneMinusDamping = 1.0;
  double Tolerance = 0.0, SkipTolerance = 0.0;
};

} // namespace bp
} // namespace anek

#endif // ANEK_FACTOR_BPDRIVER_H
