//===- Solvers.h - Marginal inference over factor graphs --------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two marginal solvers over FactorGraph:
///  - SumProductSolver: loopy belief propagation, the sum-product
///    algorithm of the paper's reference [14]. ANEK's workhorse; it runs
///    one engine (factor/BpDriver.h) and always schedules by residual.
///  - ExactSolver: marginalization by enumeration; ground truth for tests,
///    the fallback cascade's exit for small graphs, and the engine behind
///    the deterministic "Anek Logical" mode.
///
/// Every solver's work is bounded by its inputs alone (iterations,
/// 2^n assignments), never by a clock, and BP produces a SolveReport, so
/// callers can treat convergence as a contract (the fallback cascade in
/// infer/AnekInfer.h keys off it) instead of trusting the solver to end
/// usefully on pathological graphs.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_SOLVERS_H
#define ANEK_FACTOR_SOLVERS_H

#include "factor/FactorGraph.h"
#include "support/Status.h"

#include <optional>
#include <vector>

namespace anek {

/// Result of a marginal computation: P(X = true) per variable.
using Marginals = std::vector<double>;

/// How a solve went: the convergence contract a caller can branch on.
struct SolveReport {
  /// True when the solver reached its own notion of done (BP: residual
  /// under tolerance; exact: always when it returns a value).
  bool Converged = false;
  /// Last L-inf message residual (BP) or 0 for exact enumeration.
  double Residual = 0.0;
  /// Iterations actually executed.
  unsigned Iterations = 0;
  /// Raw kernel work done: messages computed (BP).
  uint64_t Updates = 0;
  /// Factor updates elided by residual scheduling (BP only): sweeps over
  /// factors whose inputs had not moved since their last update.
  uint64_t SkippedUpdates = 0;
  /// Why the solver missed its convergence contract, in the solver's own
  /// words ("residual 0.03 after 40 iterations"); empty when Converged.
  /// The fallback cascade threads this into MethodReport::Reason, so
  /// Diagnostics and traces agree on why a stage was abandoned.
  std::string Reason;
};

/// Loopy belief propagation (sum-product) with a flooding schedule and
/// residual-driven factor scheduling: a factor's table sweep is skipped
/// when its incoming messages have accumulated less than half the
/// tolerance of change since its last update *and* that update already
/// moved its outgoing messages by at most the tolerance, so converged
/// regions stop paying per-iteration cost. Every 8th iteration
/// recomputes every factor, so sub-threshold drift cannot accumulate
/// unseen. Skipping is a pure function of message values, so it is
/// deterministic.
class SumProductSolver {
public:
  struct Options {
    unsigned MaxIterations = 40;
    /// L-inf convergence threshold on message change.
    double Tolerance = 1e-5;
    /// Message damping in [0,1): new = (1-d)*new + d*old. Helps loopy
    /// graphs converge.
    double Damping = 0.15;
  };

  SumProductSolver() = default;
  explicit SumProductSolver(Options Opts) : Opts(Opts) {}

  /// Computes (approximate) marginals. Exact on trees; approximate on
  /// loopy graphs, which is all the paper requires (Section 3.4).
  ///
  /// When \p GraphLikelihood is non-null it receives, per variable, the
  /// normalized product of the incoming factor-to-variable messages with
  /// the variable's own prior excluded: the belief the *graph* holds
  /// about the variable. On trees this is the exact leave-the-prior-out
  /// cavity marginal; ANEK's summary extraction uses it as the evidence
  /// a method body or call site contributes.
  ///
  /// When \p Report is non-null it receives the convergence report; BP
  /// never fails outright, it only degrades (possibly unconverged
  /// beliefs), so the marginals are always usable as an approximation.
  Marginals solve(const FactorGraph &G, Marginals *GraphLikelihood = nullptr,
                  SolveReport *Report = nullptr) const;

private:
  Options Opts;
};

/// Injection seam for BP solves. AnekInfer routes every sum-product
/// solve through InferOptions::Bp when set, instead of constructing a
/// SumProductSolver locally; the end-to-end bench installs a delegate
/// that times each solve (TimedBp in e2e_bench/harness.cpp). The
/// contract is strict byte-identity with
/// `SumProductSolver(O).solve(G, GraphLikelihood, Report)` — marginals,
/// likelihoods, and report fields must not depend on the delegate.
class BpSolveDelegate {
public:
  virtual ~BpSolveDelegate() = default;
  virtual Marginals solve(const SumProductSolver::Options &O,
                          const FactorGraph &G, Marginals *GraphLikelihood,
                          SolveReport *Report) = 0;
};

/// Exact marginals by enumerating all 2^n assignments. Only usable for
/// small graphs; larger inputs return a structured error, never abort.
class ExactSolver {
public:
  static constexpr unsigned MaxVariables = 24;

  /// Exact marginals, or ResourceExhausted when the graph exceeds
  /// MaxVariables.
  Expected<Marginals> solve(const FactorGraph &G) const;

  /// Deterministic-solutions marginals, the engine of the deterministic
  /// "Anek Logical" configuration: every factor is a hard constraint
  /// (weight > Threshold means "satisfied"), and each variable's marginal
  /// is the fraction of satisfying assignments in which it is true.
  /// Returns std::nullopt when the graph exceeds \p VarLimit — the
  /// deterministic analogue of the paper's Logical run that "ran out of
  /// memory before a fixed point was reached" (DNF) — or when no
  /// assignment satisfies all constraints (a buggy program makes the
  /// logical system unsatisfiable — exactly the failure mode the paper's
  /// probabilistic encoding exists to avoid).
  std::optional<Marginals> solveLogical(const FactorGraph &G,
                                        unsigned VarLimit,
                                        double Threshold = 0.5) const;
};

} // namespace anek

#endif // ANEK_FACTOR_SOLVERS_H
