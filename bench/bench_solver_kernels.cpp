//===- bench_solver_kernels.cpp - CSR solver kernel throughput -------------===//
//
// Measures the belief-propagation kernels (SumProductSolver) against two
// byte-faithful baselines embedded below:
//
//   - `ref`: the pre-CSR kernels — nested per-factor message vectors,
//     O(deg^2) leave-one-out products on the variable side, per-output-
//     edge table sweeps on the factor side.
//   - `pr3`: the first-generation scalar CSR kernels — flat edge-id
//     message arrays, prefix/suffix products, single-table-sweep factor
//     marginalization. Copied verbatim (minus telemetry/fault/budget
//     plumbing) so the speedup columns keep meaning a kernel change, not
//     a measurement change.
//
// Rows: the two mean graphs the workloads solve (PMD: 84 variables,
// Table 3: 294, both at mean degree 2; printed for scale, not gated),
// then synthetic 256- and 1,024-variable graphs at mean degree 4-16.
// Reported numbers per row: ref, pr3 and kernel BP messages/s; the
// kernel/pr3 speedup; plus a convergence run at the default tolerance
// (wall time, iterations, skip fraction).
//
// Results land in bench_solver_kernels.json. Acceptance bars (exit code),
// each a geometric mean over the mean-degree >= 8 rows of per-round
// median speedups (see timedRounds/medianSpeedup for why that pairing is
// the noise-robust form on a shared box):
//   - BP marginals within 5e-2 of both baselines on every row (same
//     fixed point);
//   - kernels >= 0.95x pr3 BP messages/s and >= 4x ref BP.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "factor/FactorGraph.h"
#include "factor/Solvers.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <vector>

using namespace anek;

namespace {

/// Inline copy of clampProb, as in the embedded kernels' originals.
inline double clampFast(double P) {
  constexpr double Eps = 1e-9;
  if (P < Eps)
    return Eps;
  if (P > 1.0 - Eps)
    return 1.0 - Eps;
  return P;
}

//===----------------------------------------------------------------------===//
// Reference kernels (pre-CSR), kept verbatim-in-spirit as the baseline
//===----------------------------------------------------------------------===//

/// The pre-CSR BP inner loop: runs exactly \p Iters flooding iterations
/// and returns the marginals. No convergence exit, no damping knobs
/// beyond \p Damping — the message arithmetic is the original code's.
Marginals referenceBp(const FactorGraph &G, unsigned Iters, double Damping) {
  const unsigned NumVars = G.variableCount();
  const unsigned NumFactors = G.factorCount();
  std::vector<std::vector<double>> VarToFactor(NumFactors);
  std::vector<std::vector<double>> FactorToVar(NumFactors);
  for (unsigned F = 0; F != NumFactors; ++F) {
    size_t Degree = G.factor(F).Scope.size();
    VarToFactor[F].assign(Degree, 0.5);
    FactorToVar[F].assign(Degree, 0.5);
  }
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> Adjacency(NumVars);
  for (unsigned F = 0; F != NumFactors; ++F) {
    const auto &Scope = G.factor(F).Scope;
    for (uint32_t K = 0; K != Scope.size(); ++K)
      Adjacency[Scope[K]].push_back({F, K});
  }

  for (unsigned Iter = 0; Iter != Iters; ++Iter) {
    // Variable -> factor: O(deg^2) leave-one-out products.
    for (unsigned V = 0; V != NumVars; ++V) {
      for (auto [F, K] : Adjacency[V]) {
        double True = G.variable(V).Prior;
        double False = 1.0 - True;
        for (auto [F2, K2] : Adjacency[V]) {
          if (F2 == F && K2 == K)
            continue;
          True *= clampProb(FactorToVar[F2][K2]);
          False *= clampProb(1.0 - FactorToVar[F2][K2]);
        }
        double Sum = True + False;
        double NewMsg = Sum > 0 ? True / Sum : 0.5;
        VarToFactor[F][K] =
            (1.0 - Damping) * NewMsg + Damping * VarToFactor[F][K];
      }
    }
    // Factor -> variable: one full table sweep per outgoing edge.
    for (unsigned F = 0; F != NumFactors; ++F) {
      const FactorGraph::Factor &Factor = G.factor(F);
      const size_t Degree = Factor.Scope.size();
      const size_t TableSize = Factor.Table.size();
      for (uint32_t K = 0; K != Degree; ++K) {
        double True = 0.0, False = 0.0;
        for (size_t Index = 0; Index != TableSize; ++Index) {
          double Weight = Factor.Table[Index];
          if (Weight == 0.0)
            continue;
          for (uint32_t K2 = 0; K2 != Degree; ++K2) {
            if (K2 == K)
              continue;
            bool Bit = (Index >> K2) & 1;
            Weight *= Bit ? VarToFactor[F][K2] : 1.0 - VarToFactor[F][K2];
          }
          if ((Index >> K) & 1)
            True += Weight;
          else
            False += Weight;
        }
        double Sum = True + False;
        double NewMsg = Sum > 0 ? True / Sum : 0.5;
        FactorToVar[F][K] =
            (1.0 - Damping) * NewMsg + Damping * FactorToVar[F][K];
      }
    }
  }

  Marginals Result(NumVars, 0.5);
  for (unsigned V = 0; V != NumVars; ++V) {
    double True = G.variable(V).Prior;
    double False = 1.0 - True;
    for (auto [F, K] : Adjacency[V]) {
      True *= clampProb(FactorToVar[F][K]);
      False *= clampProb(1.0 - FactorToVar[F][K]);
    }
    double Sum = True + False;
    Result[V] = Sum > 0 ? True / Sum : 0.5;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// PR 3 scalar CSR kernels, embedded verbatim (minus telemetry/faults)
//===----------------------------------------------------------------------===//

/// The scalar CSR BP loop exactly as the solver ran it before the 4-lane
/// kernels: prefix/suffix variable products, single table sweep per factor
/// with closed arity-1/2 forms. Fixed \p Iters iterations, scheduling
/// off, tolerance 0 — the raw-throughput configuration.
Marginals pr3CsrBp(const FactorGraph &G, unsigned Iters, double Damping) {
  const unsigned NumVars = G.variableCount();
  const unsigned NumFactors = G.factorCount();
  const FactorGraph::EdgeLayout &L = G.edgeLayout();
  const uint32_t NumEdges = L.edgeCount();

  std::vector<double> VarToFactor(NumEdges, 0.5);
  std::vector<double> FactorToVar(NumEdges, 0.5);
  std::vector<double> InT(L.MaxVarDegree), InF(L.MaxVarDegree);
  std::vector<double> SufT(L.MaxVarDegree + 1), SufF(L.MaxVarDegree + 1);
  std::vector<double> MsgT(L.MaxFactorDegree), MsgF(L.MaxFactorDegree);
  std::vector<double> PreW(L.MaxFactorDegree + 1),
      SufW(L.MaxFactorDegree + 1);
  std::vector<double> OutT(L.MaxFactorDegree), OutF(L.MaxFactorDegree);

  const double OneMinusDamping = 1.0 - Damping;
  const uint32_t *VarEdges = L.VarEdges.data();
  std::vector<double> Priors(NumVars);
  for (unsigned V = 0; V != NumVars; ++V)
    Priors[V] = G.variable(V).Prior;
  std::vector<const double *> Tables(NumFactors);
  for (unsigned F = 0; F != NumFactors; ++F)
    Tables[F] = G.factor(F).Table.data();

  double Delta = 1.0;
  for (unsigned Iter = 0; Iter != Iters && Delta > 0.0; ++Iter) {
    Delta = 0.0;
    for (unsigned V = 0; V != NumVars; ++V) {
      const uint32_t Begin = L.VarOffset[V];
      const uint32_t Deg = L.VarOffset[V + 1] - Begin;
      if (Deg == 0)
        continue;
      SufT[Deg] = SufF[Deg] = 1.0;
      for (uint32_t I = Deg; I-- != 0;) {
        const double In = FactorToVar[VarEdges[Begin + I]];
        const double T = clampFast(In);
        const double Fa = clampFast(1.0 - In);
        InT[I] = T;
        InF[I] = Fa;
        SufT[I] = T * SufT[I + 1];
        SufF[I] = Fa * SufF[I + 1];
      }
      double PreT = Priors[V];
      double PreF = 1.0 - PreT;
      for (uint32_t I = 0; I != Deg; ++I) {
        const uint32_t E = VarEdges[Begin + I];
        const double True = PreT * SufT[I + 1];
        const double False = PreF * SufF[I + 1];
        const double Sum = True + False;
        double NewMsg = Sum > 0 ? True / Sum : 0.5;
        NewMsg = OneMinusDamping * NewMsg + Damping * VarToFactor[E];
        const double Change = std::fabs(NewMsg - VarToFactor[E]);
        Delta = std::max(Delta, Change);
        VarToFactor[E] = NewMsg;
        PreT *= InT[I];
        PreF *= InF[I];
      }
    }
    for (unsigned F = 0; F != NumFactors; ++F) {
      const uint32_t Begin = L.FactorOffset[F];
      const uint32_t Deg = L.FactorOffset[F + 1] - Begin;
      const double *Table = Tables[F];
      if (Deg == 1) {
        OutF[0] = Table[0];
        OutT[0] = Table[1];
      } else if (Deg == 2) {
        const double M0T = VarToFactor[Begin];
        const double M0F = 1.0 - M0T;
        const double M1T = VarToFactor[Begin + 1];
        const double M1F = 1.0 - M1T;
        OutF[0] = Table[0] * M1F + Table[2] * M1T;
        OutT[0] = Table[1] * M1F + Table[3] * M1T;
        OutF[1] = Table[0] * M0F + Table[1] * M0T;
        OutT[1] = Table[2] * M0F + Table[3] * M0T;
      } else {
        const size_t TableSize = size_t{1} << Deg;
        for (uint32_t K = 0; K != Deg; ++K) {
          MsgT[K] = VarToFactor[Begin + K];
          MsgF[K] = 1.0 - MsgT[K];
          OutT[K] = OutF[K] = 0.0;
        }
        for (size_t Index = 0; Index != TableSize; ++Index) {
          const double Weight = Table[Index];
          if (Weight == 0.0)
            continue;
          PreW[0] = Weight;
          for (uint32_t K = 0; K != Deg; ++K)
            PreW[K + 1] =
                PreW[K] * (((Index >> K) & 1) ? MsgT[K] : MsgF[K]);
          SufW[Deg] = 1.0;
          for (uint32_t K = Deg; K-- != 0;)
            SufW[K] =
                SufW[K + 1] * (((Index >> K) & 1) ? MsgT[K] : MsgF[K]);
          for (uint32_t K = 0; K != Deg; ++K) {
            const double Contrib = PreW[K] * SufW[K + 1];
            if ((Index >> K) & 1)
              OutT[K] += Contrib;
            else
              OutF[K] += Contrib;
          }
        }
      }
      double MaxChange = 0.0;
      for (uint32_t K = 0; K != Deg; ++K) {
        const uint32_t E = Begin + K;
        const double Sum = OutT[K] + OutF[K];
        double NewMsg = Sum > 0 ? OutT[K] / Sum : 0.5;
        NewMsg = OneMinusDamping * NewMsg + Damping * FactorToVar[E];
        const double Change = std::fabs(NewMsg - FactorToVar[E]);
        MaxChange = std::max(MaxChange, Change);
        FactorToVar[E] = NewMsg;
      }
      Delta = std::max(Delta, MaxChange);
    }
  }

  Marginals Result(NumVars, 0.5);
  for (unsigned V = 0; V != NumVars; ++V) {
    double True = G.variable(V).Prior;
    double False = 1.0 - True;
    for (uint32_t I = L.VarOffset[V]; I != L.VarOffset[V + 1]; ++I) {
      const double In = FactorToVar[L.VarEdges[I]];
      True *= clampProb(In);
      False *= clampProb(1.0 - In);
    }
    const double Sum = True + False;
    Result[V] = Sum > 0 ? True / Sum : 0.5;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

/// Random connected-ish graph with ~\p MeanDegree edges per variable:
/// three quarters of the edge budget as soft pairwise equalities, one
/// quarter as arity-4 random tables — the shapes constraint generation
/// actually emits, biased dense enough to exercise the O(deg^2) path.
FactorGraph makeBenchGraph(unsigned NumVars, unsigned MeanDegree,
                           uint64_t Seed) {
  Rng Random(Seed);
  FactorGraph G;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.2 + 0.6 * Random.uniform());

  const uint64_t EdgeBudget = uint64_t{NumVars} * MeanDegree;
  uint64_t Edges = 0;
  const uint64_t QuadFactors = EdgeBudget / 16; // one quarter of the edges
  for (uint64_t I = 0; I != QuadFactors; ++I) {
    std::vector<VarId> Scope;
    while (Scope.size() != 4) {
      VarId V = static_cast<VarId>(Random.below(NumVars));
      if (std::find(Scope.begin(), Scope.end(), V) == Scope.end())
        Scope.push_back(V);
    }
    std::vector<double> Table(16);
    for (double &W : Table)
      W = 0.3 + Random.uniform();
    G.addFactor(std::move(Scope), std::move(Table));
    Edges += 4;
  }
  while (Edges + 2 <= EdgeBudget) {
    VarId A = static_cast<VarId>(Random.below(NumVars));
    VarId B = static_cast<VarId>(Random.below(NumVars));
    if (A == B)
      continue;
    double Same = 1.4 + 0.8 * Random.uniform();
    double Diff = 0.3 + 0.3 * Random.uniform();
    G.addFactor({A, B}, {Same, Diff, Diff, Same});
    Edges += 2;
  }
  return G;
}

/// Best-of-\p Reps wall time of \p Body (seconds).
template <typename Fn> double bestOf(unsigned Reps, Fn &&Body) {
  double Best = 1e100;
  for (unsigned R = 0; R != Reps; ++R) {
    Timer T;
    Body();
    Best = std::min(Best, T.seconds());
  }
  return Best;
}

/// Interleaved timing for competing kernels: each of \p Reps rounds
/// runs every body twice — once untimed to repopulate the caches the
/// previous contender evicted, then once timed — and records the full
/// per-round time matrix. Timing each contender's reps back to back
/// lets slow clock drift (turbo, thermal, a noisy neighbor) land on
/// one contender's whole block and bias every ratio; interleaving puts
/// both sides of every ratio in the same clock regime, and the warm-up
/// run keeps each timed rep as cache-warm as a back-to-back block
/// would be. Reduce with minOver (throughput) and medianSpeedup
/// (drift-invariant ratios).
template <typename... Fns>
std::vector<std::array<double, sizeof...(Fns)>>
timedRounds(unsigned Reps, Fns &&...Bodies) {
  std::vector<std::array<double, sizeof...(Fns)>> Rounds(Reps);
  for (unsigned R = 0; R != Reps; ++R) {
    size_t I = 0;
    (
        [&] {
          Bodies();
          Timer T;
          Bodies();
          Rounds[R][I] = T.seconds();
          ++I;
        }(),
        ...);
  }
  return Rounds;
}

template <size_t N>
double minOver(const std::vector<std::array<double, N>> &Rounds, size_t I) {
  double Best = 1e100;
  for (const std::array<double, N> &Round : Rounds)
    Best = std::min(Best, Round[I]);
  return Best;
}

/// Median over rounds of time(\p Base) / time(\p Contender): the
/// speedup of the contender over the base. Both times in a ratio come
/// from the same round — the same clock regime — so a frequency shift
/// scales numerator and denominator alike and cancels; the median then
/// discards rounds where an interruption hit only one side.
template <size_t N>
double medianSpeedup(const std::vector<std::array<double, N>> &Rounds,
                     size_t Contender, size_t Base) {
  std::vector<double> Ratios;
  Ratios.reserve(Rounds.size());
  for (const std::array<double, N> &Round : Rounds)
    if (Round[Contender] > 0.0)
      Ratios.push_back(Round[Base] / Round[Contender]);
  if (Ratios.empty())
    return 0.0;
  std::sort(Ratios.begin(), Ratios.end());
  return Ratios[Ratios.size() / 2];
}

double maxAbsDiff(const Marginals &A, const Marginals &B) {
  double Max = 0.0;
  for (size_t I = 0; I != A.size(); ++I)
    Max = std::max(Max, std::fabs(A[I] - B[I]));
  return Max;
}

struct ConfigResult {
  unsigned Vars = 0;
  unsigned MeanDegree = 0;
  uint64_t Edges = 0;
  // BP messages/sec by kernel generation.
  double BpRefEps = 0.0;
  double BpPr3Eps = 0.0;
  double BpScalarEps = 0.0;
  double BpScalarVsPr3 = 0.0;
  double BpScalarVsRef = 0.0;
  double BpMaxDiff = 0.0; // kernels vs pre-CSR reference.
  double BpPr3Diff = 0.0; // kernels vs PR 3 CSR baseline.
  double SchedSeconds = 0.0;
  double SchedSkippedFrac = 0.0;
  unsigned SchedIterations = 0;
};

} // namespace

int main() {
  // The timed kernel loops run with collection off (no bench turns it
  // on): this bench's numbers double as the guard for the
  // disabled-telemetry contract (one relaxed load per site), so an
  // instrumentation regression shows up directly as lost throughput.
  std::printf("Solver kernel throughput: scalar kernels vs scalar-CSR "
              "(pr3) and pre-CSR (ref) baselines\n");
  rule();
  std::printf("%5s %3s %6s | %9s %9s %9s %6s\n", "vars", "deg", "edges",
              "bp-ref", "bp-pr3", "bp-scal", "xpr3");
  rule();

  constexpr unsigned BpIters = 25;
  // Best-of-5: this box's run-to-run timing variance is well above the
  // gate margins at best-of-3.
  constexpr unsigned Reps = 5;
  constexpr double Damping = 0.15;

  // The workloads' mean graphs first (PMD 84.3 variables and Table 3
  // 293.7, at mean degree 1.7-1.8), then the dense synthetic grid the
  // gates read.
  struct Shape {
    unsigned Vars, MeanDegree;
  };
  std::vector<Shape> Shapes = {{84, 2}, {294, 2}};
  for (unsigned MeanDegree : {4u, 8u, 12u, 16u})
    for (unsigned NumVars : {256u, 1024u})
      Shapes.push_back({NumVars, MeanDegree});

  std::vector<ConfigResult> Results;
  for (const Shape &Row : Shapes) {
    const unsigned NumVars = Row.Vars;
    const unsigned MeanDegree = Row.MeanDegree;
    FactorGraph G =
        makeBenchGraph(NumVars, MeanDegree, 0x5EED0000 + MeanDegree);
    // Built outside the timed region.
    const FactorGraph::EdgeLayout &L = G.edgeLayout();

    ConfigResult R;
    R.Vars = NumVars;
    R.MeanDegree = MeanDegree;
    R.Edges = L.edgeCount();
    const double BpMessages = 2.0 * static_cast<double>(R.Edges) * BpIters;

    // Raw message throughput: fixed iterations, zero tolerance (no
    // early exit). The kernels' one path still schedules by residual,
    // but at tolerance 0 it skips only a factor whose inputs and last
    // outputs moved by exactly 0, so all three do the same work up to
    // those rare skips, which the note below reports.
    SumProductSolver::Options RawOpts;
    RawOpts.MaxIterations = BpIters;
    RawOpts.Tolerance = 0.0;
    RawOpts.Damping = Damping;
    SumProductSolver Raw(RawOpts);

    Marginals ScalarMarginals, Pr3Marginals, RefMarginals;
    SolveReport ScalarReport;
    const auto BpRounds = timedRounds(
        Reps,
        [&] { ScalarMarginals = Raw.solve(G, nullptr, &ScalarReport); },
        [&] { Pr3Marginals = pr3CsrBp(G, BpIters, Damping); },
        [&] { RefMarginals = referenceBp(G, BpIters, Damping); });
    if (ScalarReport.Updates != static_cast<uint64_t>(BpMessages))
      std::printf("  (note: kernel run computed %llu of %.0f messages)\n",
                  static_cast<unsigned long long>(ScalarReport.Updates),
                  BpMessages);
    // Throughput columns use the per-method best; the gated ratios use
    // per-round medians (see medianSpeedup), so a row's ratio can
    // differ slightly from the quotient of its printed columns.
    R.BpRefEps = BpMessages / minOver(BpRounds, 2);
    R.BpPr3Eps = BpMessages / minOver(BpRounds, 1);
    R.BpScalarEps = BpMessages / minOver(BpRounds, 0);
    R.BpScalarVsPr3 = medianSpeedup(BpRounds, 0, 1);
    R.BpScalarVsRef = medianSpeedup(BpRounds, 0, 2);
    R.BpMaxDiff = maxAbsDiff(ScalarMarginals, RefMarginals);
    R.BpPr3Diff = maxAbsDiff(ScalarMarginals, Pr3Marginals);

    // Convergence-mode run, where residual scheduling skips factors.
    SumProductSolver::Options SchedOpts;
    SchedOpts.MaxIterations = 200;
    SchedOpts.Damping = Damping;
    SumProductSolver Sched(SchedOpts);
    SolveReport SchedReport;
    R.SchedSeconds =
        bestOf(Reps, [&] { Sched.solve(G, nullptr, &SchedReport); });
    R.SchedIterations = SchedReport.Iterations;
    uint64_t Swept = SchedReport.Updates + SchedReport.SkippedUpdates;
    R.SchedSkippedFrac =
        Swept > 0 ? static_cast<double>(SchedReport.SkippedUpdates) /
                        static_cast<double>(Swept)
                  : 0.0;

    std::printf("%5u %3u %6llu | %9.3g %9.3g %9.3g %5.2fx\n", R.Vars,
                R.MeanDegree, static_cast<unsigned long long>(R.Edges),
                R.BpRefEps, R.BpPr3Eps, R.BpScalarEps, R.BpScalarVsPr3);
    Results.push_back(R);
  }
  rule();

  // Acceptance summary over the dense regime: geometric mean of the
  // per-row ratios (each already a per-round median, see
  // medianSpeedup). The geomean is the standard cross-config aggregate
  // for throughput ratios, and — unlike a min, which on a shared box
  // estimates the worst interference any single row caught rather than
  // any property of the kernels — it is stable enough to gate on.
  double GeoBpScalarVsPr3 = 0.0, GeoBpVsRef = 0.0;
  double MaxBpDiff = 0.0, MaxBpPr3Diff = 0.0;
  unsigned DenseRows = 0;
  for (const ConfigResult &R : Results) {
    MaxBpDiff = std::max(MaxBpDiff, R.BpMaxDiff);
    MaxBpPr3Diff = std::max(MaxBpPr3Diff, R.BpPr3Diff);
    if (R.MeanDegree >= 8) {
      ++DenseRows;
      GeoBpScalarVsPr3 += std::log(R.BpScalarVsPr3);
      GeoBpVsRef += std::log(R.BpScalarVsRef);
    }
  }
  for (double *G : {&GeoBpScalarVsPr3, &GeoBpVsRef})
    *G = DenseRows ? std::exp(*G / DenseRows) : 0.0;
  std::printf("mean degree >= 8 (geomean): %.2fx pr3 BP; %.2fx ref BP\n",
              GeoBpScalarVsPr3, GeoBpVsRef);
  std::printf("marginal agreement: BP max |diff| %.2e vs ref, %.2e vs "
              "pr3\n",
              MaxBpDiff, MaxBpPr3Diff);

  std::ofstream Json("bench_solver_kernels.json");
  Json << "{\n  \"bench\": \"solver_kernels\",\n"
       << "  \"bp_iterations\": " << BpIters << ",\n"
       << "  \"configs\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const ConfigResult &R = Results[I];
    Json << "    {\"vars\": " << R.Vars
         << ", \"mean_degree\": " << R.MeanDegree
         << ", \"edges\": " << R.Edges
         << ",\n     \"bp_ref_eps\": " << R.BpRefEps
         << ", \"bp_pr3_eps\": " << R.BpPr3Eps
         << ", \"bp_scalar_eps\": " << R.BpScalarEps
         << ",\n     \"bp_scalar_vs_pr3\": " << R.BpScalarVsPr3
         << ", \"bp_scalar_vs_ref\": " << R.BpScalarVsRef
         << ", \"bp_max_diff\": " << R.BpMaxDiff
         << ", \"bp_pr3_diff\": " << R.BpPr3Diff
         << ",\n     \"sched_seconds\": " << R.SchedSeconds
         << ", \"sched_iterations\": " << R.SchedIterations
         << ", \"sched_skipped_frac\": " << R.SchedSkippedFrac << "}"
         << (I + 1 == Results.size() ? "\n" : ",\n");
  }
  Json << "  ],\n"
       << "  \"bp_speedup_vs_ref_deg8\": " << GeoBpVsRef << ",\n"
       << "  \"bp_scalar_vs_pr3_deg8\": " << GeoBpScalarVsPr3 << ",\n"
       << "  \"max_bp_marginal_diff\": " << MaxBpDiff << ",\n"
       << "  \"max_bp_pr3_diff\": " << MaxBpPr3Diff << "\n}\n";
  std::puts("Written to bench_solver_kernels.json.");

  // Exit nonzero on a broken contract or a missed floor: the bench
  // doubles as the end-to-end acceptance check for the kernels.
  const bool Ok = MaxBpDiff < 0.05 && MaxBpPr3Diff < 0.05 &&
                  GeoBpScalarVsPr3 >= 0.95 && GeoBpVsRef >= 4.0;
  return Ok ? 0 : 1;
}
