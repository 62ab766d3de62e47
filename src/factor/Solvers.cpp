//===- Solvers.cpp - Marginal inference over factor graphs -----------------===//

#include "factor/Solvers.h"

#include "factor/BpDriver.h"
#include "factor/Kernels.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

using namespace anek;

//===----------------------------------------------------------------------===//
// Loopy belief propagation
//===----------------------------------------------------------------------===//
//
// The iteration loop and the kernel bodies live behind the KernelBackend
// seam (factor/Kernels.h): this method builds a zero-copy BpView over the
// graph's cached EdgeLayout, runs the driver (factor/BpDriver.cpp), and
// keeps PR 3's reporting and telemetry surface unchanged.

Marginals SumProductSolver::solve(const FactorGraph &G,
                                  Marginals *GraphLikelihood,
                                  SolveReport *Report) const {
  Timer SolveTimer;
  // Telemetry gates, hoisted out of the message loops: when tracing is
  // off each costs one relaxed load here and a dead branch below.
  telemetry::Span SolveSpan("solver.bp", telemetry::TraceLevel::Method,
                            "solver");
  const bool TraceIters =
      telemetry::enabled(telemetry::TraceLevel::Solver);
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
  const bp::RunStats S = Engine.run(Opts, TraceIters);
  LastIterations = S.Iterations;
  const bool Converged = !ForcedNonConvergence && !S.DeadlineExpired &&
                         S.Delta <= Opts.Tolerance;
  if (Report) {
    Report->Iterations = S.Iterations;
    Report->Residual = S.Delta;
    Report->DeadlineExpired = S.DeadlineExpired;
    Report->Converged = Converged;
    Report->Updates = S.Updates;
    Report->SkippedUpdates = S.Skipped;
    Report->Reason.clear();
    if (!Converged)
      Report->Reason = formatStr(
          "residual %.2g after %u iterations%s%s", S.Delta, S.Iterations,
          S.DeadlineExpired ? ", budget expired" : "",
          ForcedNonConvergence ? ", injected non-convergence" : "");
  }
  if (TraceIters)
    telemetry::counterSample("bp.residual", telemetry::TraceLevel::Solver,
                             "solver", "residual", S.Delta);
  if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
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
    SolveSpan.arg("backend", kern::solverKernels().Name);
    if (!Opts.Budget.unlimited())
      SolveSpan.arg("budget_remaining_s", Opts.Budget.remainingSeconds());
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

Expected<Marginals> ExactSolver::solve(const FactorGraph &G,
                                       const Deadline &Budget) const {
  telemetry::Span SolveSpan("solver.exact", telemetry::TraceLevel::Method,
                            "solver");
  const unsigned NumVars = G.variableCount();
  if (SolveSpan.active())
    SolveSpan.arg("vars", NumVars);
  if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
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
    if ((Index & 0xFFF) == 0 && Budget.expired())
      return Status::error(
          ErrorCode::DeadlineExceeded,
          formatStr("exact enumeration budget expired after %llu of %llu "
                    "assignments",
                    static_cast<unsigned long long>(Index),
                    static_cast<unsigned long long>(Count)));
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
/// Returns false when \p Budget expires (same 4096-assignment check
/// cadence as the scalar loop).
bool enumeratePacked(const FactorGraph &G, unsigned NumVars,
                     double Threshold, const Deadline &Budget,
                     uint64_t &Satisfying,
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
    if ((Block & 0x3F) == 0 && Budget.expired())
      return false;
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
  return true;
}

/// The pre-popcount scalar enumeration, kept for graphs the packed path
/// declines (fewer than six variables, or a pathological factor).
bool enumerateSimple(const FactorGraph &G, unsigned NumVars,
                     double Threshold, const Deadline &Budget,
                     uint64_t &Satisfying,
                     std::vector<uint64_t> *TrueCounts) {
  const uint64_t Count = uint64_t{1} << NumVars;
  for (uint64_t Index = 0; Index != Count; ++Index) {
    if ((Index & 0xFFF) == 0 && Budget.expired())
      return false;
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
  return true;
}

bool enumerateSatisfying(const FactorGraph &G, unsigned NumVars,
                         double Threshold, const Deadline &Budget,
                         uint64_t &Satisfying,
                         std::vector<uint64_t> *TrueCounts) {
  if (canEnumeratePacked(G, NumVars))
    return enumeratePacked(G, NumVars, Threshold, Budget, Satisfying,
                           TrueCounts);
  return enumerateSimple(G, NumVars, Threshold, Budget, Satisfying,
                         TrueCounts);
}

} // namespace

std::optional<uint64_t>
ExactSolver::countSatisfying(const FactorGraph &G, unsigned VarLimit,
                             double Threshold,
                             const Deadline &Budget) const {
  const unsigned NumVars = G.variableCount();
  if (NumVars > VarLimit || NumVars > 62)
    return std::nullopt; // The deterministic solver gives up: DNF.
  uint64_t Satisfying = 0;
  if (!enumerateSatisfying(G, NumVars, Threshold, Budget, Satisfying,
                           nullptr))
    return std::nullopt; // Budget expired mid-enumeration: DNF.
  return Satisfying;
}

std::optional<Marginals>
ExactSolver::solveLogical(const FactorGraph &G, unsigned VarLimit,
                          double Threshold, const Deadline &Budget) const {
  const unsigned NumVars = G.variableCount();
  if (NumVars > VarLimit || NumVars > 62)
    return std::nullopt; // Too large: the deterministic solver gives up.
  uint64_t Satisfying = 0;
  std::vector<uint64_t> TrueCounts(NumVars, 0);
  if (!enumerateSatisfying(G, NumVars, Threshold, Budget, Satisfying,
                           &TrueCounts))
    return std::nullopt; // Budget expired mid-enumeration: DNF.
  if (Satisfying == 0)
    return std::nullopt; // Unsatisfiable: conflicting constraints.
  Marginals Result(NumVars);
  for (unsigned V = 0; V != NumVars; ++V)
    Result[V] = static_cast<double>(TrueCounts[V]) /
                static_cast<double>(Satisfying);
  return Result;
}

//===----------------------------------------------------------------------===//
// Gibbs sampling
//===----------------------------------------------------------------------===//

Marginals GibbsSolver::solve(const FactorGraph &G,
                             SolveReport *Report) const {
  Timer SolveTimer;
  telemetry::Span SolveSpan("solver.gibbs", telemetry::TraceLevel::Method,
                            "solver");
  const unsigned NumVars = G.variableCount();
  if (NumVars == 0) {
    if (Report) {
      *Report = SolveReport();
      Report->Converged = Opts.Samples > 0;
      if (!Report->Converged)
        Report->Reason = "no samples requested (Samples == 0)";
    }
    return {};
  }
  // Raw SplitMix64 state handed to the kernel; kern::rngNext is the
  // same arithmetic as Rng, so the stream is the one Rng(Seed) yields.
  uint64_t RngState = Opts.Seed;
  const FactorGraph::EdgeLayout &L = G.edgeLayout();
  const unsigned NumFactors = G.factorCount();

  // Initialize from priors.
  std::vector<double> Priors(NumVars);
  std::vector<uint8_t> Assign(NumVars);
  for (unsigned V = 0; V != NumVars; ++V) {
    Priors[V] = G.variable(V).Prior;
    Assign[V] = kern::rngUniform(RngState) < Priors[V];
  }

  // Incremental conditional evaluation: each factor's current table
  // index is cached and maintained under flips (flipping V XORs V's
  // slot bits into every adjacent factor's index), so a conditional
  // weight is one table load per adjacent factor instead of an index
  // rebuild over that factor's whole scope.
  std::vector<uint32_t> CurIndex(NumFactors, 0);
  for (uint32_t E = 0; E != L.edgeCount(); ++E)
    if (Assign[L.EdgeVar[E]])
      CurIndex[L.EdgeFactor[E]] |= L.EdgeSlotBit[E];

  kern::GibbsView View;
  View.NumVars = NumVars;
  View.VarOffset = L.VarOffset.data();
  View.VmFactor = L.VmFactor.data();
  View.VmMask = L.VmMask.data();
  View.VmSlotBit = L.VmSlotBit.data();
  View.VmTableBase = L.VmTableBase.data();
  View.TableFlat = L.TableFlat.data();
  View.Priors = Priors.data();
  kern::GibbsState KState;
  KState.CurIndex = CurIndex.data();
  KState.Assign = Assign.data();
  KState.RngState = &RngState;
  // Pair path: seed every position's current pair index from CurIndex
  // once; the kernel maintains it under flips through the
  // flip-adjacency CSR (and leaves CurIndex itself untouched — the
  // sampler reads chain state from Assign only).
  std::vector<uint32_t> PosIdx;
  if (!L.PairFlat.empty()) {
    View.PairFlat = L.PairFlat.data();
    View.FlipOffset = L.FlipOffset.data();
    View.FlipPos = L.FlipPos.data();
    View.FlipDelta = L.FlipDelta.data();
    PosIdx.resize(L.edgeCount());
    for (uint32_t I = 0; I != L.edgeCount(); ++I) {
      const uint32_t Cur = CurIndex[L.VmFactor[I]];
      const uint32_t Low = L.VmPairLow[I];
      PosIdx[I] =
          L.VmPairBase[I] + 2 * ((Cur & Low) | ((Cur >> 1) & ~Low));
    }
    KState.PosIdx = PosIdx.data();
  }
  const kern::SolverKernels &K = kern::solverKernels();

  std::vector<uint32_t> TrueCounts(NumVars, 0);
  unsigned Collected = 0;
  bool DeadlineExpired = false;
  uint64_t Updates = 0;
  const unsigned Sweeps = Opts.BurnIn + Opts.Samples;
  const bool TraceSweeps =
      telemetry::enabled(telemetry::TraceLevel::Solver);
  unsigned Sweep = 0;
  for (; Sweep != Sweeps; ++Sweep) {
    if (Opts.Budget.expired(Sweep)) {
      DeadlineExpired = true;
      break;
    }
    if (TraceSweeps && (Sweep & 0xFF) == 0)
      telemetry::counterSample("gibbs.progress",
                               telemetry::TraceLevel::Solver, "solver",
                               "sweep", static_cast<double>(Sweep));
    // The kernel runs the sweep in chunks so the mid-sweep wall-clock
    // check keeps its cadence (before variables 63, 127, ...): on large
    // graphs a single sweep can outlast the whole budget, while small
    // graphs keep the exact sweep counts the per-sweep check alone
    // would produce.
    uint32_t ChunkBegin = 0;
    while (ChunkBegin != NumVars) {
      const uint32_t ChunkEnd = std::min<uint32_t>(
          NumVars, ChunkBegin == 0 ? 63u : ChunkBegin + 64);
      K.GibbsSweep(View, KState, ChunkBegin, ChunkEnd);
      Updates += ChunkEnd - ChunkBegin;
      ChunkBegin = ChunkEnd;
      if (ChunkBegin != NumVars && Opts.Budget.expired(Sweep)) {
        DeadlineExpired = true;
        break;
      }
    }
    if (DeadlineExpired)
      break; // Do not sample a half-updated sweep.
    if (Sweep >= Opts.BurnIn) {
      for (unsigned V = 0; V != NumVars; ++V)
        TrueCounts[V] += Assign[V];
      ++Collected;
    }
  }

  // A cut-short chain averages whatever samples it collected; with none
  // at all the marginals stay at the uninformative 0.5.
  Marginals Result(NumVars, 0.5);
  if (Collected > 0)
    for (unsigned V = 0; V != NumVars; ++V)
      Result[V] = static_cast<double>(TrueCounts[V]) /
                  static_cast<double>(Collected);
  // Samples == 0 collects nothing by construction: that is a
  // non-convergent run over uninformative marginals, not a vacuous
  // success.
  const bool Converged = Opts.Samples > 0 && Collected == Opts.Samples;
  if (Report) {
    Report->Iterations = Sweep;
    Report->DeadlineExpired = DeadlineExpired;
    Report->Converged = Converged;
    Report->Residual = 0.0;
    Report->Updates = Updates;
    Report->Seconds = SolveTimer.seconds();
    Report->Reason.clear();
    if (!Converged) {
      // Every non-convergent outcome names its cause, so the cascade's
      // Diagnostics and the trace agree on why the stage was abandoned
      // (including the Samples == 0 degenerate request, which used to
      // surface as a reasonless "Samples == 0" non-convergence).
      if (Opts.Samples == 0)
        Report->Reason = "no samples requested (Samples == 0)";
      else
        Report->Reason = formatStr(
            "deadline expired after %u of %u sweeps, %u/%u samples "
            "collected",
            Sweep, Sweeps, Collected, Opts.Samples);
    }
  }
  if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
    telemetry::counter("solver.gibbs.solves").add(1);
    telemetry::counter("solver.gibbs.flips").add(Updates);
    if (!Converged)
      telemetry::counter("solver.gibbs.nonconverged").add(1);
    telemetry::histogram("solver.gibbs.sweeps")
        .record(static_cast<double>(Sweep));
    telemetry::histogram("solver.gibbs.samples")
        .record(static_cast<double>(Collected));
    telemetry::histogram("solver.gibbs.seconds")
        .record(SolveTimer.seconds());
  }
  if (SolveSpan.active()) {
    SolveSpan.arg("vars", NumVars);
    SolveSpan.arg("sweeps", Sweep);
    SolveSpan.arg("samples", Collected);
    SolveSpan.arg("flips", Updates);
    SolveSpan.argBool("converged", Converged);
    if (!Opts.Budget.unlimited())
      SolveSpan.arg("budget_remaining_s", Opts.Budget.remainingSeconds());
  }
  return Result;
}
