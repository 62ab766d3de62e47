//===- Solvers.cpp - Marginal inference over factor graphs -----------------===//

#include "factor/Solvers.h"

#include "factor/BpDriver.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <optional>

using namespace anek;

//===----------------------------------------------------------------------===//
// Loopy belief propagation
//===----------------------------------------------------------------------===//
//
// The iteration loop and its passes live in factor/BpDriver.cpp: this
// method runs a BpEngine over the graph's EdgeLayout and turns its stats
// into the SolveReport and telemetry.

Marginals SumProductSolver::solve(const FactorGraph &G,
                                  Marginals *GraphLikelihood,
                                  SolveReport *Report) const {
  // The clock is read only for the solver.bp.seconds histogram.
  const bool Metering = telemetry::metering();
  std::optional<Timer> SolveTimer;
  if (Metering)
    SolveTimer.emplace();
  telemetry::Span SolveSpan("solver.bp", "solver");
  const unsigned NumVars = G.variableCount();
  const unsigned NumFactors = G.factorCount();
  // Fault 'bp-nonconverge': run normally but report the solve as not
  // converged, exactly as on a frustrated loopy graph.
  const bool ForcedNonConvergence =
      faults::anyActive() && faults::active(FaultKind::BpNonConvergence);

  bp::BpEngine Engine(G);
  const bp::RunStats S = Engine.run(Opts);
  const bool Converged = !ForcedNonConvergence && S.Delta <= Opts.Tolerance;
  if (Report) {
    Report->Iterations = S.Iterations;
    Report->Residual = S.Delta;
    Report->Converged = Converged;
    Report->Updates = S.Updates;
    Report->SkippedUpdates = S.Skipped;
    Report->Reason.clear();
    if (!Converged)
      Report->Reason = formatStr(
          "residual %.2g after %u iterations%s", S.Delta, S.Iterations,
          ForcedNonConvergence ? ", injected non-convergence" : "");
  }
  if (Metering) {
    telemetry::counter("solver.bp.solves").add(1);
    telemetry::counter("solver.bp.messages").add(S.Updates);
    telemetry::counter("solver.bp.skipped_updates").add(S.Skipped);
    if (!Converged)
      telemetry::counter("solver.bp.nonconverged").add(1);
    telemetry::histogram("solver.bp.iterations")
        .record(static_cast<double>(S.Iterations));
    telemetry::histogram("solver.bp.residual").record(S.Delta);
    telemetry::histogram("solver.bp.seconds").record(SolveTimer->seconds());
  }
  if (SolveSpan.active()) {
    SolveSpan.arg("vars", NumVars);
    SolveSpan.arg("factors", NumFactors);
    SolveSpan.arg("iters", S.Iterations);
    SolveSpan.arg("residual", S.Delta);
    SolveSpan.argBool("converged", Converged);
    SolveSpan.arg("messages", S.Updates);
  }

  Marginals Result;
  Engine.beliefs(Result, GraphLikelihood);
  return Result;
}

//===----------------------------------------------------------------------===//
// Exact enumeration
//===----------------------------------------------------------------------===//

Expected<Marginals> ExactSolver::solve(const FactorGraph &G) const {
  telemetry::Span SolveSpan("solver.exact", "solver");
  const unsigned NumVars = G.variableCount();
  if (SolveSpan.active())
    SolveSpan.arg("vars", NumVars);
  if (telemetry::metering()) {
    telemetry::counter("solver.exact.solves").add(1);
    telemetry::histogram("solver.exact.vars")
        .record(static_cast<double>(NumVars));
  }
  if (NumVars > MaxVariables)
    return Status::error(
        ErrorCode::ResourceExhausted,
        formatStr("graph has %u variables, exact enumeration handles "
                  "at most %u",
                  NumVars, MaxVariables));
  const uint32_t NumFactors = G.factorCount();
  std::vector<double> TrueMass(NumVars, 0.0);
  double Total = 0.0;
  // Direct bit tests against the assignment index replace the per-index
  // vector<bool> fill; the multiplication order (priors in variable
  // order, then factors in order) is jointWeight's, bit for bit.
  std::vector<double> PriorTrue(NumVars), PriorFalse(NumVars);
  for (unsigned V = 0; V != NumVars; ++V) {
    PriorTrue[V] = G.variable(V).Prior;
    PriorFalse[V] = 1.0 - PriorTrue[V];
  }
  const uint64_t Count = uint64_t{1} << NumVars;
  for (uint64_t Index = 0; Index != Count; ++Index) {
    double Weight = 1.0;
    for (unsigned V = 0; V != NumVars; ++V)
      Weight *= ((Index >> V) & 1) ? PriorTrue[V] : PriorFalse[V];
    for (uint32_t F = 0; F != NumFactors; ++F) {
      const FactorGraph::Factor Factor = G.factor(F);
      size_t TableIndex = 0;
      for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit)
        if ((Index >> Factor.Scope[Bit]) & 1)
          TableIndex |= size_t{1} << Bit;
      Weight *= Factor.Table[TableIndex];
    }
    Total += Weight;
    for (unsigned V = 0; V != NumVars; ++V)
      if ((Index >> V) & 1)
        TrueMass[V] += Weight;
  }
  Marginals Result(NumVars, 0.5);
  if (Total > 0)
    for (unsigned V = 0; V != NumVars; ++V)
      Result[V] = TrueMass[V] / Total;
  return Result;
}

std::optional<Marginals>
ExactSolver::solveLogical(const FactorGraph &G, unsigned VarLimit,
                          double Threshold) const {
  const unsigned NumVars = G.variableCount();
  if (NumVars > VarLimit || NumVars > 62)
    return std::nullopt; // Too large: the deterministic solver gives up.
  uint64_t Satisfying = 0;
  std::vector<uint64_t> TrueCounts(NumVars, 0);
  const uint64_t Count = uint64_t{1} << NumVars;
  for (uint64_t Index = 0; Index != Count; ++Index) {
    bool Ok = true;
    for (uint32_t F = 0; F != G.factorCount() && Ok; ++F) {
      const FactorGraph::Factor Factor = G.factor(F);
      size_t TableIndex = 0;
      for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit)
        if ((Index >> Factor.Scope[Bit]) & 1)
          TableIndex |= size_t{1} << Bit;
      Ok = Factor.Table[TableIndex] > Threshold;
    }
    if (!Ok)
      continue;
    ++Satisfying;
    for (unsigned V = 0; V != NumVars; ++V)
      if ((Index >> V) & 1)
        ++TrueCounts[V];
  }
  if (Satisfying == 0)
    return std::nullopt; // Unsatisfiable: conflicting constraints.
  Marginals Result(NumVars);
  for (unsigned V = 0; V != NumVars; ++V)
    Result[V] = static_cast<double>(TrueCounts[V]) /
                static_cast<double>(Satisfying);
  return Result;
}
