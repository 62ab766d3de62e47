//===- Solvers.h - Marginal inference over factor graphs --------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three marginal solvers over FactorGraph:
///  - SumProductSolver: loopy belief propagation, the sum-product
///    algorithm of the paper's reference [14]. ANEK's workhorse.
///  - ExactSolver: marginalization by enumeration; ground truth for tests
///    and the engine behind the deterministic "Anek Logical" mode.
///  - GibbsSolver: seeded Gibbs sampling, the "sampling the marginal
///    functions" alternative mentioned in Section 3.4.
///
/// Every solver accepts a Deadline budget and produces a SolveReport, so
/// callers can treat convergence and runtime as a contract (the fallback
/// cascade in AnekInfer/GlobalInfer keys off these) instead of trusting
/// the solver to terminate usefully on pathological graphs.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_SOLVERS_H
#define ANEK_FACTOR_SOLVERS_H

#include "factor/FactorGraph.h"
#include "support/Deadline.h"
#include "support/Rng.h"
#include "support/Status.h"

#include <optional>
#include <vector>

namespace anek {

/// Result of a marginal computation: P(X = true) per variable.
using Marginals = std::vector<double>;

/// How a solve went: the convergence contract a caller can branch on.
struct SolveReport {
  /// True when the solver reached its own notion of done (BP: residual
  /// under tolerance; Gibbs: all requested samples collected; exact:
  /// always when it returns a value).
  bool Converged = false;
  /// Last L-inf message residual (BP) or 0 for solvers without one.
  double Residual = 0.0;
  /// Iterations/sweeps actually executed.
  unsigned Iterations = 0;
  /// Wall-clock seconds spent inside the solver.
  double Seconds = 0.0;
  /// True when the Deadline budget cut the solve short.
  bool DeadlineExpired = false;
  /// Raw kernel work done: messages computed (BP) or single-variable
  /// resampling steps (Gibbs). Updates / Seconds is the throughput the
  /// bench suite tracks.
  uint64_t Updates = 0;
  /// Factor updates elided by residual scheduling (BP only): sweeps over
  /// factors whose inputs had not moved since their last update.
  uint64_t SkippedUpdates = 0;
  /// Why the solver missed its convergence contract, in the solver's own
  /// words ("deadline expired after 3 of 2200 sweeps, 0/2000 samples
  /// collected"); empty when Converged. The fallback cascade threads
  /// this into MethodReport::Reason, so Diagnostics and traces agree on
  /// why a stage was abandoned.
  std::string Reason;
};

/// Loopy belief propagation (sum-product) with a flooding schedule.
class SumProductSolver {
public:
  struct Options {
    unsigned MaxIterations = 40;
    /// L-inf convergence threshold on message change.
    double Tolerance = 1e-5;
    /// Message damping in [0,1): new = (1-d)*new + d*old. Helps loopy
    /// graphs converge.
    double Damping = 0.15;
    /// Wall-clock budget checked once per iteration (default unlimited).
    Deadline Budget;
    /// Residual-driven factor scheduling: skip a factor's table sweep
    /// when its incoming messages have accumulated less than half the
    /// tolerance of change since its last update *and* that update
    /// already moved its outgoing messages by at most the tolerance —
    /// converged regions stop paying per-iteration cost. Skipping is a
    /// pure function of message values, so it is deterministic.
    bool ResidualScheduling = true;
    /// Every RefreshInterval-th iteration recomputes every factor
    /// regardless of residual, so sub-threshold drift cannot accumulate
    /// unseen. 0 disables the periodic refresh.
    unsigned RefreshInterval = 8;
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

  /// Iterations used by the last solve() call.
  mutable unsigned LastIterations = 0;

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
  /// MaxVariables / DeadlineExceeded when \p Budget expires mid-sweep.
  Expected<Marginals> solve(const FactorGraph &G,
                            const Deadline &Budget = Deadline()) const;

  /// Interprets every factor as a hard constraint (weight > Threshold
  /// means "satisfied") and counts satisfying assignments; the engine of
  /// the deterministic "Anek Logical" configuration. Returns std::nullopt
  /// when the variable count exceeds \p VarLimit or \p Budget expires
  /// mid-enumeration — the deterministic analogue of the paper's Logical
  /// run that "ran out of memory before a fixed point was reached" (DNF).
  std::optional<uint64_t> countSatisfying(const FactorGraph &G,
                                          unsigned VarLimit,
                                          double Threshold = 0.5,
                                          const Deadline &Budget =
                                              Deadline()) const;

  /// Deterministic-solutions marginals: the fraction of *satisfying*
  /// assignments (every factor weight > Threshold) in which each variable
  /// is true. Returns std::nullopt when the graph exceeds \p VarLimit
  /// (DNF), \p Budget expires mid-enumeration, or no assignment satisfies
  /// all constraints (a buggy program makes the logical system
  /// unsatisfiable — exactly the failure mode the paper's probabilistic
  /// encoding exists to avoid).
  std::optional<Marginals> solveLogical(const FactorGraph &G,
                                        unsigned VarLimit,
                                        double Threshold = 0.5,
                                        const Deadline &Budget =
                                            Deadline()) const;
};

/// Gibbs sampling with a deterministic seed.
class GibbsSolver {
public:
  struct Options {
    unsigned BurnIn = 200;
    unsigned Samples = 2000;
    uint64_t Seed = 1;
    /// Wall-clock budget checked once per sweep (default unlimited). An
    /// expired budget returns marginals over the samples collected so
    /// far; the report says how many that was.
    Deadline Budget;
  };

  GibbsSolver() = default;
  explicit GibbsSolver(Options Opts) : Opts(Opts) {}

  Marginals solve(const FactorGraph &G, SolveReport *Report = nullptr) const;

private:
  Options Opts;
};

} // namespace anek

#endif // ANEK_FACTOR_SOLVERS_H
