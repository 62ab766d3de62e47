//===- AnekInfer.h - The modular ANEK-INFER algorithm ------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ANEK-INFER worklist algorithm of paper Figure 9: per-method
/// probabilistic models are solved one at a time; probabilistic summaries
/// placed at method boundaries carry information across methods; the loop
/// runs a bounded number of iterations instead of to a fixpoint; a final
/// thresholding step extracts deterministic specifications.
///
/// The loop is scheduled as reverse-topological *waves* of call-graph
/// SCCs: every method in a wave is built and solved against a read-only
/// snapshot of the summary store, and the resulting evidence is merged
/// back, update by update in declaration order, once the wave
/// completes. Because the schedule is the algorithm (not an
/// implementation detail of a thread count), `Parallelism = N` produces
/// byte-identical results to `Parallelism = 1`. See DESIGN.md,
/// "Concurrency model".
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_ANEKINFER_H
#define ANEK_INFER_ANEKINFER_H

#include "constraints/ConstraintGen.h"
#include "factor/Solvers.h"
#include "infer/SolveCache.h"
#include "infer/Summary.h"
#include "infer/SummaryIO.h"
#include "lang/Ast.h"
#include "support/Diagnostics.h"

#include <array>
#include <map>
#include <memory>

namespace anek {

/// How one SOLVE left the fallback cascade (DESIGN.md, "The fallback
/// cascade").
enum class CascadeExit : uint8_t {
  /// No fallback: BP met its contract.
  None = 0,
  /// BP missed its tolerance but ended within NearConvergence; its
  /// beliefs were kept as they are. Only a solve with a finer tolerance
  /// than NearConvergence (the joint solve) can leave here.
  NearConvergedBp,
  /// Exact enumeration of a graph within ExactSolver::MaxVariables.
  Exact,
  /// BP missed and the graph was too large to enumerate, so BP's
  /// unconverged beliefs were kept.
  KeptDegraded,
};

/// Number of CascadeExit values.
inline constexpr unsigned NumCascadeExits = 4;

/// Renders a CascadeExit for footers and reports: "none",
/// "near-converged bp", "exact", "kept degraded".
const char *cascadeExitName(CascadeExit Exit);

/// How one method's SOLVE step went, cascade decisions included.
struct MethodReport {
  /// How the cascade ended, and so which solver's marginals were used:
  /// exact enumeration's for Exact, BP's otherwise. Anything but None
  /// means BP missed its tolerance and the cascade ran: a fallback solve.
  CascadeExit Exit = CascadeExit::None;
  /// Why the cascade moved on; empty when the first attempt converged.
  std::string Reason;
  /// Convergence report of the solve whose marginals were used.
  SolveReport Solve;
  /// Number of SOLVE invocations across worklist picks.
  unsigned Solves = 0;
  /// True when the method was skipped entirely (its model or its SOLVE
  /// step failed); its summary stays at the conservative default.
  bool Failed = false;
  /// The failure, when Failed.
  std::string Error;
};

/// The finest BP residual the evidence channel can see: its 0.15/0.2
/// deadbands and its odds cap of 9 hide any smaller change. It is the
/// modular SOLVE's BP tolerance, so a modular solve either converges or
/// misses with a residual above it. In the cascade it is also the residual
/// at or below which a solve that missed a finer tolerance (the joint
/// solve's) is accepted as it is.
inline constexpr double NearConvergence = 1e-2;

/// Extraction threshold t of Fig. 9 (lines 22-29), in [0.5, 1): a kind,
/// and a state beside it, enters a spec only when its pooled probability
/// exceeds t. Declared specs are always kept as they are.
inline constexpr double ExtractionThreshold = 0.7;

/// The SOLVE step's fallback cascade, shared by the modular engine and
/// the joint solve (DESIGN.md, "The fallback cascade"). Runs BP once with
/// \p BpOpts, through \p Bp when set, and exits:
///  - None when BP converged;
///  - NearConvergedBp when it ended within NearConvergence and no
///    bp-nonconverge fault is injected;
///  - Exact when \p G has at most ExactSolver::MaxVariables variables;
///  - KeptDegraded otherwise, keeping BP's beliefs.
/// Records the exit, the SolveReport of the solve whose marginals are
/// returned and the reason trail in \p Report, which must be fresh.
/// \p GraphBelief, when non-null, receives the per-variable cavity
/// beliefs (BP's own, or the exact marginals with each prior divided
/// out).
Marginals solveCascade(const FactorGraph &G,
                       const SumProductSolver::Options &BpOpts,
                       BpSolveDelegate *Bp, MethodReport &Report,
                       Marginals *GraphBelief = nullptr);

/// What a caller of the inference chooses: the pick budget, the
/// constraint-family toggles, and how the run is executed (threads, the
/// summary cache, the BP seam). Everything else the model and the
/// extraction use is a named constant (ExtractionThreshold,
/// SpecPriorHigh/SpecPriorLow in constraints/VarMap.h, the h weights in
/// constraints/ConstraintGen.cpp).
struct InferOptions {
  /// Worklist picks (Figure 9's MaxIters). 0 means 3 passes over the
  /// methods with bodies.
  unsigned MaxIters = 0;
  ConstraintOptions Constraints;

  // Parallel scheduler (DESIGN.md, "Concurrency model").
  /// Working threads for a wave's jobs: 1 = run them inline, 0 = one per
  /// hardware thread, N = the calling thread plus N - 1 pool workers. The
  /// merge always runs on the calling thread. The schedule (SCC waves
  /// over a read-only summary snapshot, every update merged in
  /// declaration order) is the same for every value, so the result is
  /// byte-identical regardless of Parallelism.
  unsigned Parallelism = 1;

  // Incremental summary cache (DESIGN.md, "Incremental inference and the
  // summary cache").
  /// When set, the cache sits behind the run's SOLVE memo: a pick whose
  /// state the run has not seen yet is digested into a content key and
  /// looked up from its wave job, and a hit replays the stored evidence
  /// byte-identically instead of solving. Each distinct state reaches the
  /// cache at most once per run; repeats replay from the memo. Caching
  /// silently disables itself, like the memo, while an
  /// analysis-perturbing fault is armed, because a replay would then not
  /// be guaranteed to reproduce what a fresh solve would compute.
  SolveCache *Cache = nullptr;

  /// When set, every sum-product solve runAnekInfer or runGlobalInfer
  /// issues is routed through this delegate instead of a locally
  /// constructed SumProductSolver. The end-to-end bench installs one
  /// that times each solve (TimedBp in e2e_bench/harness.cpp); the
  /// delegate contract (factor/Solvers.h) requires byte-identical
  /// results, so installing one never changes what inference computes.
  BpSolveDelegate *Bp = nullptr;
};

/// Outcome of a run. The per-method maps are keyed in declaration order
/// (MethodDeclMap), so iterating them for output is deterministic across
/// runs and processes — pointer-keyed maps would leak ASLR into reports.
struct InferResult {
  /// Inferred specs for methods that had none declared (non-empty only).
  MethodDeclMap<MethodSpec> Inferred;
  /// Final summaries (for inspection/benches).
  MethodDeclMap<MethodSummary> Summaries;

  /// Per-method solver/cascade reports (one per method with a body).
  MethodDeclMap<MethodReport> Reports;

  // Statistics.
  unsigned WorklistPicks = 0;
  /// Picks the run-local SOLVE memo answered by replaying an outcome
  /// this run had already solved or read from the cache (DESIGN.md,
  /// "Incremental inference and the summary cache"). A replay is still a
  /// pick. The same with or without a cache; zero under an analysis
  /// fault, which disarms the memo.
  unsigned MemoReplays = 0;
  unsigned MethodsAnalyzed = 0;
  /// Methods isolated after a failure (skipped with a diagnostic).
  unsigned MethodsFailed = 0;
  /// SOLVE steps that used a fallback solver.
  unsigned FallbackSolves = 0;
  /// FallbackSolves split by how each left the cascade, indexed by
  /// CascadeExit (the None slot stays 0). Counted per pick, replays
  /// included, like FallbackSolves.
  std::array<unsigned, NumCascadeExits> FallbackExits{};
  unsigned TotalVariables = 0;
  unsigned TotalFactors = 0;
  /// Solver wall-clock summed over the picks that actually solved;
  /// replays (cache or memo hits) add nothing.
  double SolveSeconds = 0.0;

  /// Summary-cache accounting; all zero unless InferOptions::Cache was
  /// set and usable. Corrupt != 0 means entries failed validation and
  /// were re-inferred (a cache integrity problem is never a run error).
  CacheStats Cache;

  /// Always ok: nothing cuts a run short, because a failing method is
  /// isolated and a failing solve degrades through the cascade. Kept so
  /// callers that check it (e2e_bench/harness.cpp) need no change.
  Status Aborted;

  /// The spec to use for \p Method: declared when present, else inferred,
  /// else an empty spec.
  const MethodSpec *specFor(const MethodDecl *Method) const;

  /// Number of methods that received a non-empty inferred spec.
  unsigned inferredAnnotationCount() const {
    return static_cast<unsigned>(Inferred.size());
  }
};

/// Runs ANEK-INFER over every method with a body in \p Prog, which must
/// have been through Sema: the engine names methods by declaration index
/// and asserts that the indices are unique.
///
/// Inference never aborts on a bad method: a method whose constraint
/// generation or solve fails is skipped with a warning collected in
/// \p Diags (when provided), keeps its conservative default summary, and
/// the rest of the program is still inferred.
InferResult runAnekInfer(Program &Prog, const InferOptions &Opts = {},
                         DiagnosticEngine *Diags = nullptr);

} // namespace anek

#endif // ANEK_INFER_ANEKINFER_H
