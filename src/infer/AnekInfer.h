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
/// back in declaration order once the wave completes. Because the
/// schedule is the algorithm (not an implementation detail of a thread
/// count), `Parallelism = N` produces byte-identical results to
/// `Parallelism = 1`. See DESIGN.md, "Concurrency model".
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
#include "support/Cancel.h"
#include "support/Deadline.h"
#include "support/Diagnostics.h"
#include "support/MemTrack.h"

#include <map>
#include <memory>

namespace anek {

class ThreadPool;

/// Which marginal solver ANEK-INFER's SOLVE step uses.
enum class SolverChoice { SumProduct, Gibbs, Exact };

/// Renders a SolverChoice as "bp"/"gibbs"/"exact".
const char *solverChoiceName(SolverChoice Choice);

/// Counters of the sharded execution tier (src/shard/), carried in
/// InferResult so the serving layer can classify a run that survived
/// worker losses as degraded rather than silently clean.
struct ShardStats {
  /// Wave batches the executor ran remotely.
  unsigned WavesRemote = 0;
  /// Waves that fell back to in-process execution after the executor
  /// failed outright or returned an unusable result.
  unsigned WavesDegraded = 0;
  /// Shard dispatches to worker processes, re-dispatches included.
  unsigned ShardsDispatched = 0;
  /// Dispatches that were retries after a worker loss.
  unsigned Redispatches = 0;
  /// Worker processes lost: crashed, hung past the heartbeat deadline,
  /// or recycled after an unreadable frame.
  unsigned WorkersLost = 0;
  unsigned WorkersSpawned = 0;
  /// Shards that exhausted their loss budget and were degraded to
  /// in-process sequential execution (terminal state
  /// degraded(shard-quarantine); the work is never lost).
  unsigned ShardsQuarantined = 0;
};

/// Executes wave batches outside the engine's own process. The engine
/// stays in charge of the algorithm — wave composition, the frozen
/// snapshot, merge order — and delegates only the embarrassingly
/// parallel middle: "analyze these methods against this snapshot".
///
/// The contract that keeps `--shards N` byte-identical to `-j1`:
/// executeWave receives a declaration-ordered batch plus a sealed
/// summary snapshot (summaryio::encodeSnapshot) and must return exactly
/// one outcome per requested method, computed as runShardMethods would
/// compute it with the same options. Outcomes may arrive in any order
/// (the engine re-sorts into batch order before merging) and may be
/// computed anywhere, any number of attempts deep — re-dispatch after a
/// crash re-runs against the same snapshot, so retries are invisible in
/// the result. An error return degrades the wave to in-process
/// execution; it never fails the run.
class WaveShardExecutor {
public:
  virtual ~WaveShardExecutor() = default;

  /// Analyzes the methods named by \p DeclIndices against \p Snapshot.
  virtual Expected<std::vector<summaryio::SolveOutcome>>
  executeWave(const std::vector<unsigned> &DeclIndices,
              const std::string &Snapshot) = 0;

  /// Dispatch-side counters accumulated so far (WavesRemote/WavesDegraded
  /// are filled by the engine; implementations report the rest).
  virtual ShardStats stats() const { return {}; }
};

/// Tunables of the inference (paper Sections 3.3-3.4).
struct InferOptions {
  /// Worklist picks (Figure 9's MaxIters). 0 means 3 passes over the
  /// methods with bodies.
  unsigned MaxIters = 0;
  /// Extraction threshold t in [0.5, 1).
  double Threshold = 0.7;
  /// A summary change below this does not requeue dependents.
  double SummaryTolerance = 0.02;
  SolverChoice Solver = SolverChoice::SumProduct;
  ConstraintOptions Constraints;
  /// Spec-prior strengths (Section 3.2).
  double SpecHi = 0.9;
  double SpecLo = 0.1;
  /// Keep explicitly declared specs instead of inferred ones.
  bool RespectDeclared = true;

  // Robustness knobs (see DESIGN.md, "Failure model and degradation").
  /// When the primary solver misses its convergence contract, walk the
  /// fallback cascade (BP -> damped BP -> Gibbs -> exact) instead of
  /// silently using unconverged beliefs.
  bool Fallback = true;
  /// Wall-clock budget per SOLVE step in seconds; 0 = unlimited. The
  /// budget is a degradation trigger, not an abort: an expired solve
  /// falls through the cascade and ultimately keeps the best partial
  /// marginals available.
  double SolveBudgetSeconds = 0.0;

  // Parallel scheduler (DESIGN.md, "Concurrency model").
  /// Worker threads for the wave scheduler: 1 = run wave jobs inline,
  /// 0 = one worker per hardware thread, N = exactly N workers. The
  /// schedule (SCC waves over a read-only summary snapshot, updates
  /// merged in declaration order) is the same for every value, so the
  /// result is byte-identical regardless of Parallelism.
  unsigned Parallelism = 1;
  /// User seed mixed into every per-method solver seed. Each method's
  /// Gibbs chain is seeded from a stable hash of its qualified name plus
  /// this value, so sampling does not depend on scheduling order.
  uint64_t Seed = 1;

  // Serving integration (DESIGN.md, "Serving model"). All four default to
  // "not governed"; single-request callers pay nothing.
  /// Externally owned worker pool for wave jobs; overrides Parallelism
  /// when set. The batch serving layer shares one pool across requests.
  ThreadPool *Pool = nullptr;
  /// Cooperative cancellation, polled at wave boundaries: a cancelled run
  /// stops scheduling waves and returns with InferResult::Aborted set to
  /// the token's status. The work already merged stays in the result.
  const CancelToken *Cancel = nullptr;
  /// Whole-run wall-clock budget, polled at the same wave boundaries
  /// (SolveBudgetSeconds bounds individual SOLVE steps). Unlimited by
  /// default; an explicitly limited budget that expires aborts the run
  /// with DeadlineExceeded.
  Deadline RunBudget;
  /// When set, every inference thread (scheduler and wave workers alike)
  /// enrolls its allocations here, so a batch request's peak-memory
  /// watermark covers the whole solve.
  memtrack::MemCharge *Memory = nullptr;
  /// Request-scoped fault label prefix: site-filtered faults also match
  /// "<FaultScope>/<qualified-method>", so a batch request can be faulted
  /// without perturbing concurrent requests over the same program.
  std::string FaultScope;

  // Sharded execution (DESIGN.md, "Sharded execution and failure model").
  /// When set, wave batches are handed to this executor (normally a
  /// shard::ShardCoordinator farming the batch to worker processes)
  /// instead of the in-process scheduler. Never set in a worker.
  WaveShardExecutor *ShardExec = nullptr;

  // Incremental summary cache (DESIGN.md, "Incremental inference and the
  // summary cache").
  /// When set, the engine memoizes SOLVE invocations through this cache:
  /// each wave job's inputs are digested into a content key and a hit
  /// replays the stored evidence byte-identically instead of solving.
  /// Caching silently disables itself when its preconditions do not hold
  /// — a per-solve time budget (SolveBudgetSeconds > 0 makes solve
  /// results timing-dependent) or an armed analysis-perturbing fault —
  /// because a replay would then not be guaranteed to reproduce what a
  /// fresh solve would compute. Never set in a shard worker.
  SolveCache *Cache = nullptr;

  /// When set, every sum-product solve the engine issues is routed
  /// through this delegate instead of a locally constructed
  /// SumProductSolver. The end-to-end bench installs one that times each
  /// solve (TimedBp in e2e_bench/harness.cpp); the delegate contract
  /// (factor/Solvers.h) requires byte-identical results, so installing
  /// one never changes what inference computes.
  BpSolveDelegate *Bp = nullptr;
};

/// How one method's SOLVE step went, cascade decisions included.
struct MethodReport {
  /// The solver whose marginals were actually used (last solve).
  SolverChoice Used = SolverChoice::SumProduct;
  /// True when any fallback stage past the first BP attempt was taken.
  bool Fallback = false;
  /// Why the cascade moved on; empty when the first attempt converged.
  std::string Reason;
  /// Convergence report of the solve whose marginals were used.
  SolveReport Solve;
  /// Number of SOLVE invocations across worklist picks.
  unsigned Solves = 0;
  /// True when the method was skipped entirely (constraint generation or
  /// every solver failed); its summary stays at the conservative default.
  bool Failed = false;
  /// The failure, when Failed.
  std::string Error;
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
  /// this run had already computed (DESIGN.md, "The in-run SOLVE memo").
  /// A replay is still a pick. Zero when the memo is disarmed: under a
  /// cache, a shard executor, a per-solve budget or an analysis fault.
  unsigned MemoReplays = 0;
  unsigned MethodsAnalyzed = 0;
  /// Methods isolated after a failure (skipped with a diagnostic).
  unsigned MethodsFailed = 0;
  /// SOLVE steps that used a fallback solver.
  unsigned FallbackSolves = 0;
  unsigned TotalVariables = 0;
  unsigned TotalFactors = 0;
  /// Solver wall-clock summed over the picks that actually solved;
  /// replays (cache or memo hits) add nothing.
  double SolveSeconds = 0.0;

  /// Sharded-execution counters; all zero unless InferOptions::ShardExec
  /// was set. ShardsQuarantined != 0 or WavesDegraded != 0 means the run
  /// survived infrastructure failures by degrading (results are still
  /// byte-identical to -j1 by the executor contract).
  ShardStats Shard;

  /// Summary-cache accounting; all zero unless InferOptions::Cache was
  /// set and usable. Corrupt != 0 means entries failed validation and
  /// were re-inferred (a cache integrity problem is never a run error).
  CacheStats Cache;

  /// Non-ok when the run was cut short by InferOptions::Cancel or
  /// RunBudget at a wave boundary. Summaries and reports reflect the work
  /// merged before the abort; no specs are extracted from an aborted run.
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

/// Worker-side shard entry (`anek --worker`, src/shard/): analyzes the
/// methods named by \p DeclIndices — sequentially, in declaration-index
/// order — against the frozen summary \p Snapshot and returns their wire
/// outcomes. \p Opts must carry the same algorithm knobs (solver,
/// cascade, SpecHi/SpecLo, seed, constraints) as the coordinating run:
/// given that, the outcomes are byte-for-byte the evidence the
/// coordinator's own scheduler would have produced for the same wave.
/// A method that fails analysis yields a Failed outcome (merged as a
/// skip); the call itself errors only on structural problems — an
/// unknown declaration index or a snapshot that does not decode against
/// this program.
Expected<std::vector<summaryio::SolveOutcome>>
runShardMethods(Program &Prog, const std::vector<unsigned> &DeclIndices,
                const std::string &Snapshot, const InferOptions &Opts);

} // namespace anek

#endif // ANEK_INFER_ANEKINFER_H
