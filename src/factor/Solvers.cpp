//===- Solvers.cpp - Marginal inference over factor graphs -----------------===//

#include "factor/Solvers.h"

#include "factor/BpDriver.h"
#include "factor/Kernels.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <bit>
#include <cmath>
#include <limits>

using namespace anek;

//===----------------------------------------------------------------------===//
// Loopy belief propagation
//===----------------------------------------------------------------------===//
//
// The iteration loop and the kernel bodies live in factor/BpDriver.cpp
// and factor/Kernels.cpp: this method builds a zero-copy BpView over the
// graph's cached EdgeLayout, runs the driver, and turns its stats into
// the SolveReport and telemetry.

Marginals SumProductSolver::solve(const FactorGraph &G,
                                  Marginals *GraphLikelihood,
                                  SolveReport *Report) const {
  Timer SolveTimer;
  telemetry::Span SolveSpan("solver.bp", "solver");
  const unsigned NumVars = G.variableCount();
  const unsigned NumFactors = G.factorCount();
  const FactorGraph::EdgeLayout &L = G.edgeLayout();
  // Fault 'bp-nonconverge': run normally but report the solve as not
  // converged, exactly as on a frustrated loopy graph.
  const bool ForcedNonConvergence =
      faults::anyActive() && faults::active(FaultKind::BpNonConvergence);

  std::vector<double> Priors(NumVars);
  for (unsigned V = 0; V != NumVars; ++V)
    Priors[V] = G.variable(V).Prior;

  kern::BpView View;
  View.NumVars = NumVars;
  View.NumFactors = NumFactors;
  View.NumEdges = L.edgeCount();
  View.FactorOffset = L.FactorOffset.data();
  View.VarOffset = L.VarOffset.data();
  View.VarEdges = L.VarEdges.data();
  View.VmFactor = L.VmFactor.data();
  View.TableOffset = L.TableOffset.data();
  View.TableFlat = L.TableFlat.data();
  View.Priors = Priors.data();

  bp::BpEngine Engine(View);
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
  if (telemetry::metering()) {
    telemetry::counter("solver.bp.solves").add(1);
    telemetry::counter("solver.bp.messages").add(S.Updates);
    telemetry::counter("solver.bp.skipped_updates").add(S.Skipped);
    if (!Converged)
      telemetry::counter("solver.bp.nonconverged").add(1);
    telemetry::histogram("solver.bp.iterations")
        .record(static_cast<double>(S.Iterations));
    telemetry::histogram("solver.bp.residual").record(S.Delta);
    telemetry::histogram("solver.bp.seconds").record(SolveTimer.seconds());
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
  if (Report)
    Report->Seconds = SolveTimer.seconds();
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
      const FactorGraph::Factor &Factor = G.factor(F);
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

namespace {

/// Lane-truth masks for the packed logical enumeration: bit j of a
/// 64-assignment block word stands for assignment BlockBase | j, so low
/// variable v (v < 6) is true exactly in the lanes where bit v of j is
/// set.
constexpr uint64_t LaneTrue[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Whether the popcount fast path applies: enough variables to fill a
/// 64-lane block, and no factor whose precomputed satisfied-word table
/// (one word per combination of its variables above the low six) would
/// blow up.
bool canEnumeratePacked(const FactorGraph &G, unsigned NumVars) {
  if (NumVars < 6)
    return false;
  for (uint32_t F = 0; F != G.factorCount(); ++F) {
    unsigned HighSlots = 0;
    for (VarId V : G.factor(F).Scope)
      HighSlots += V >= 6;
    if (HighSlots > 12)
      return false;
  }
  return true;
}

/// Bit-parallel hard-constraint enumeration: evaluates 64 assignments
/// (all values of the six low variables) per step. Per factor, the
/// satisfied mask over those 64 lanes depends only on the factor's
/// high-variable assignment, so it is precomputed per high combination;
/// the block loop then ANDs one word per factor and popcounts. Counts
/// are integers, so results are exactly the scalar enumeration's.
void enumeratePacked(const FactorGraph &G, unsigned NumVars,
                     double Threshold, uint64_t &Satisfying,
                     std::vector<uint64_t> *TrueCounts) {
  const uint32_t NumFactors = G.factorCount();
  struct FactorWords {
    // (variable, scope slot) for scope entries with variable id >= 6.
    std::vector<std::pair<unsigned, unsigned>> HighSlots;
    std::vector<uint64_t> Words; // indexed by packed high-slot bits.
  };
  std::vector<FactorWords> Packed(NumFactors);
  for (uint32_t F = 0; F != NumFactors; ++F) {
    const FactorGraph::Factor &Factor = G.factor(F);
    FactorWords &P = Packed[F];
    std::vector<std::pair<unsigned, unsigned>> LowSlots;
    for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit) {
      if (Factor.Scope[Bit] < 6)
        LowSlots.emplace_back(Factor.Scope[Bit],
                              static_cast<unsigned>(Bit));
      else
        P.HighSlots.emplace_back(Factor.Scope[Bit],
                                 static_cast<unsigned>(Bit));
    }
    uint32_t LowIdx[64];
    for (unsigned J = 0; J != 64; ++J) {
      uint32_t Idx = 0;
      for (const auto &Slot : LowSlots)
        if ((J >> Slot.first) & 1)
          Idx |= uint32_t{1} << Slot.second;
      LowIdx[J] = Idx;
    }
    P.Words.resize(size_t{1} << P.HighSlots.size());
    for (size_t H = 0; H != P.Words.size(); ++H) {
      uint32_t HighIdx = 0;
      for (size_t I = 0; I != P.HighSlots.size(); ++I)
        if ((H >> I) & 1)
          HighIdx |= uint32_t{1} << P.HighSlots[I].second;
      uint64_t Word = 0;
      for (unsigned J = 0; J != 64; ++J)
        if (Factor.Table[LowIdx[J] | HighIdx] > Threshold)
          Word |= uint64_t{1} << J;
      P.Words[H] = Word;
    }
  }
  const uint64_t Blocks = uint64_t{1} << (NumVars - 6);
  for (uint64_t Block = 0; Block != Blocks; ++Block) {
    const uint64_t BlockBase = Block << 6;
    uint64_t Acc = ~uint64_t{0};
    for (uint32_t F = 0; F != NumFactors && Acc; ++F) {
      const FactorWords &P = Packed[F];
      size_t H = 0;
      for (size_t I = 0; I != P.HighSlots.size(); ++I)
        if ((BlockBase >> P.HighSlots[I].first) & 1)
          H |= size_t{1} << I;
      Acc &= P.Words[H];
    }
    if (!Acc)
      continue;
    const uint64_t Full = static_cast<uint64_t>(std::popcount(Acc));
    Satisfying += Full;
    if (TrueCounts) {
      for (unsigned V = 0; V != 6; ++V)
        (*TrueCounts)[V] +=
            static_cast<uint64_t>(std::popcount(Acc & LaneTrue[V]));
      for (unsigned V = 6; V != NumVars; ++V)
        if ((BlockBase >> V) & 1)
          (*TrueCounts)[V] += Full;
    }
  }
}

/// The pre-popcount scalar enumeration, kept for graphs the packed path
/// declines (fewer than six variables, or a pathological factor).
void enumerateSimple(const FactorGraph &G, unsigned NumVars,
                     double Threshold, uint64_t &Satisfying,
                     std::vector<uint64_t> *TrueCounts) {
  const uint64_t Count = uint64_t{1} << NumVars;
  for (uint64_t Index = 0; Index != Count; ++Index) {
    bool Ok = true;
    for (uint32_t F = 0; F != G.factorCount() && Ok; ++F) {
      const FactorGraph::Factor &Factor = G.factor(F);
      size_t TableIndex = 0;
      for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit)
        if ((Index >> Factor.Scope[Bit]) & 1)
          TableIndex |= size_t{1} << Bit;
      Ok = Factor.Table[TableIndex] > Threshold;
    }
    if (!Ok)
      continue;
    ++Satisfying;
    if (TrueCounts)
      for (unsigned V = 0; V != NumVars; ++V)
        if ((Index >> V) & 1)
          ++(*TrueCounts)[V];
  }
}

void enumerateSatisfying(const FactorGraph &G, unsigned NumVars,
                         double Threshold, uint64_t &Satisfying,
                         std::vector<uint64_t> *TrueCounts) {
  if (canEnumeratePacked(G, NumVars))
    enumeratePacked(G, NumVars, Threshold, Satisfying, TrueCounts);
  else
    enumerateSimple(G, NumVars, Threshold, Satisfying, TrueCounts);
}

} // namespace

std::optional<uint64_t>
ExactSolver::countSatisfying(const FactorGraph &G, unsigned VarLimit,
                             double Threshold) const {
  const unsigned NumVars = G.variableCount();
  if (NumVars > VarLimit || NumVars > 62)
    return std::nullopt; // The deterministic solver gives up: DNF.
  uint64_t Satisfying = 0;
  enumerateSatisfying(G, NumVars, Threshold, Satisfying, nullptr);
  return Satisfying;
}

std::optional<Marginals>
ExactSolver::solveLogical(const FactorGraph &G, unsigned VarLimit,
                          double Threshold) const {
  const unsigned NumVars = G.variableCount();
  if (NumVars > VarLimit || NumVars > 62)
    return std::nullopt; // Too large: the deterministic solver gives up.
  uint64_t Satisfying = 0;
  std::vector<uint64_t> TrueCounts(NumVars, 0);
  enumerateSatisfying(G, NumVars, Threshold, Satisfying, &TrueCounts);
  if (Satisfying == 0)
    return std::nullopt; // Unsatisfiable: conflicting constraints.
  Marginals Result(NumVars);
  for (unsigned V = 0; V != NumVars; ++V)
    Result[V] = static_cast<double>(TrueCounts[V]) /
                static_cast<double>(Satisfying);
  return Result;
}
