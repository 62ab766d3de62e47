//===- AnekInfer.cpp - The modular ANEK-INFER algorithm --------------------===//

#include "infer/AnekInfer.h"

#include "analysis/CallGraph.h"
#include "analysis/IrBuilder.h"
#include "factor/Solvers.h"
#include "lang/PrettyPrinter.h"
#include "pfg/PfgBuilder.h"
#include "support/FaultInject.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

using namespace anek;

const char *anek::cascadeExitName(CascadeExit Exit) {
  switch (Exit) {
  case CascadeExit::None:
    return "none";
  case CascadeExit::NearConvergedBp:
    return "near-converged bp";
  case CascadeExit::Exact:
    return "exact";
  case CascadeExit::KeptDegraded:
    return "kept degraded";
  }
  return "unknown";
}

const MethodSpec *InferResult::specFor(const MethodDecl *Method) const {
  static const MethodSpec Empty;
  if (Method->HasDeclaredSpec)
    return &Method->DeclaredSpec;
  auto It = Inferred.find(Method);
  if (It != Inferred.end())
    return &It->second;
  return &Empty;
}

namespace {

/// A summary update that moves its target by at most this much requeues
/// nothing: neither the target's owner nor the owner's callers.
constexpr double SummaryTolerance = 0.02;

/// The per-vote evidence cap: every odds multiplier an update carries
/// lies in [1 / EvidenceOddsCap, EvidenceOddsCap]. computeEvidence clamps
/// to it, and validateOutcome rejects cached odds outside it.
constexpr double EvidenceOddsCap = 9.0;

/// BP options of every modular SOLVE: the solver's iteration cap and
/// damping, stopped at NearConvergence, below which no change reaches the
/// evidence (see computeEvidence). The joint solve keeps the solver's
/// default tolerance (runGlobalInfer).
constexpr SumProductSolver::Options ModularBpOptions{.Tolerance =
                                                         NearConvergence};

/// Odds-ratio clamp: keeps evidence finite when marginals saturate.
double oddsRatio(double Marginal, double AppliedPrior) {
  double Ratio = probToOdds(Marginal) / probToOdds(AppliedPrior);
  return std::clamp(Ratio, 1e-6, 1e6);
}

/// Bitwise equality of two streams of doubles: the exact-input test
/// behind every memo hit.
bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

/// Rewrites a summary prior for call-site application.
///
/// Requirement side (call pre): a callee that requires K is satisfied by
/// anything stronger, so kinds *stronger* than the winning kind must not
/// be suppressed — the object flowing through may hold more than is lent.
///
/// Availability side (call post / result): a callee that returns K also
/// makes every *weaker* kind available (unique can be downgraded to
/// anything), and the caller's retained permission can reconstitute
/// *stronger* kinds through merging (Section 2's borrow round trip), so
/// no kind other than the named one may be suppressed at the site.
std::vector<double> transformPrior(std::vector<double> P,
                                   bool IsRequirement) {
  if (P.size() < NumPermKinds)
    return P;
  unsigned Best = 0;
  for (unsigned K = 1; K != NumPermKinds; ++K)
    if (P[K] > P[Best])
      Best = K;
  if (P[Best] <= 0.6)
    return P; // No confident kind: leave untouched.
  if (IsRequirement) {
    for (unsigned K = 0; K != Best; ++K)
      P[K] = std::max(P[K], 0.5);
  } else {
    for (unsigned K = Best + 1; K != NumPermKinds; ++K)
      P[K] = std::max(P[K], 0.5);
  }
  return P;
}

/// Appends one cascade decision to a report's reason trail. `--report`
/// prints the trail and the `infer.method` span carries it as its
/// `reason` arg, so both views of one run tell one story.
void appendReason(MethodReport &Report, std::string Why) {
  if (!Report.Reason.empty())
    Report.Reason += "; ";
  Report.Reason += std::move(Why);
}

/// Cavity beliefs for exact marginals, which have no native ones: each
/// marginal with the variable's prior divided out (exact on trees,
/// approximate on loops).
void dividePriors(const FactorGraph &G, const Marginals &M,
                  Marginals &GraphBelief) {
  GraphBelief.resize(M.size());
  for (unsigned V = 0; V != M.size(); ++V)
    GraphBelief[V] = oddsToProb(probToOdds(M[V]) /
                                probToOdds(G.variable(V).Prior));
}

} // namespace

Marginals anek::solveCascade(const FactorGraph &G,
                             const SumProductSolver::Options &BpOpts,
                             BpSolveDelegate *Bp, MethodReport &Report,
                             Marginals *GraphBelief) {
  // The delegate is contractually byte-identical to the local solver, so
  // nothing below cares which path ran.
  Marginals M =
      Bp ? Bp->solve(BpOpts, G, GraphBelief, &Report.Solve)
         : SumProductSolver(BpOpts).solve(G, GraphBelief, &Report.Solve);
  if (Report.Solve.Converged)
    return M;

  // The solver names its own failure (SolveReport::Reason); the cascade
  // only adds which exit it takes.
  appendReason(Report,
               "bp missed convergence (" + Report.Solve.Reason + ")");
  // The injected non-convergence fault models *bad* divergence, so it
  // skips this exit.
  if (!(faults::anyActive() &&
        faults::active(FaultKind::BpNonConvergence)) &&
      Report.Solve.Residual <= NearConvergence) {
    Report.Exit = CascadeExit::NearConvergedBp;
    appendReason(Report, "accepted nearly-converged bp");
    return M;
  }
  if (G.variableCount() <= ExactSolver::MaxVariables)
    if (Expected<Marginals> Exact = ExactSolver().solve(G)) {
      Report.Exit = CascadeExit::Exact;
      Report.Solve = SolveReport();
      Report.Solve.Converged = true;
      if (GraphBelief)
        dividePriors(G, *Exact, *GraphBelief);
      return Exact.take();
    }
  // Too large to enumerate: BP's beliefs are still a usable
  // approximation, and the report says how they were obtained.
  Report.Exit = CascadeExit::KeptDegraded;
  appendReason(Report, "using unconverged bp beliefs");
  return M;
}

namespace {

/// The engine behind runAnekInfer.
///
/// Phase 2 runs as rounds of reverse-topological SCC *waves* (see
/// CallGraph::sccWaves). Every method in a wave is analyzed as an
/// independent job against the summary store as it stood when the wave
/// began: jobs only read, and return their evidence as a SolveOutcome
/// record of deferred updates, one odds vector per summary application.
/// After the wave, the merge applies every update on the scheduling
/// thread in declaration (= batch) order, so each target sees one fixed
/// sequence of updates, and returns one fixed sequence of deltas, no
/// matter how many workers ran the jobs. This makes `-j N`
/// byte-identical to `-j 1` by construction.
class InferEngine {
public:
  InferEngine(Program &Prog, const InferOptions &Opts,
              DiagnosticEngine *Diags)
      : Prog(Prog), Opts(Opts), Diags(Diags), Graph(Prog),
        DebugEvidence(std::getenv("ANEK_DEBUG_EVIDENCE") != nullptr) {}

  InferResult run();

private:
  using SolveOutcome = summaryio::SolveOutcome;

  /// One summary-prior application of a method's model: the PFG node a
  /// summary target's pooled prior is set on before the solve, and whose
  /// solved marginals update that target after it.
  struct Application {
    PfgNodeId Node = NoPfgNode;
    TargetSummary *Target = nullptr;
    /// Method whose summary the target belongs to.
    MethodDecl *SummaryOwner = nullptr;
    /// True: the method's own interface target, updated through
    /// setSelfOdds. False: a callee's target, updated as Site's evidence.
    bool IsSelf = false;
    /// True for a call site's receiver and parameter preconditions: a
    /// site may only weaken a requirement, never strengthen it
    /// (requirements come from bodies).
    bool IsRequirement = false;
    CallSiteKey Site{nullptr, 0};
  };

  struct MethodData {
    Pfg G;
    /// applicationsOf(G), built once in phase 1: every pick pools its
    /// priors through it, and every record's odds vectors line up with it.
    std::vector<Application> Applications;
  };

  /// The replay path's view of one pick: its memo key and applied-prior
  /// stream and, when the cache was asked, the cache key and the answer.
  /// analyzeOne fills it; after the wave, the scheduling thread counts
  /// the answer and files the outcome under it.
  struct MemoProbe {
    uint64_t Key = 0;
    /// Every prior the method's model applies, concatenated in
    /// application order: the pick pools into it, sets each
    /// application's slice on its node, and the memo files it. Which
    /// targets and nodes the slices go to is fixed per method after
    /// phase 1, so the values are the whole input of the solve.
    std::vector<double> Stream;
    /// Set by analyzeOne when the memo served the pick.
    bool Replayed = false;
    /// Set on a memo miss with a cache armed: what the lookup under
    /// CacheKey found. A hit that failed validation reads Invalidated.
    std::optional<CacheLookup> Lookup;
    uint64_t CacheKey = 0;
  };

  /// One memoized SOLVE: the exact stream it was solved against and the
  /// fresh outcome (Solves = 1, before any merge), which names the method.
  struct MemoEntry {
    std::vector<double> Stream;
    SolveOutcome Outcome;
  };

  /// One declaration index's method and its summary.
  struct DeclSlot {
    MethodDecl *Method = nullptr;
    MethodSummary *Summary = nullptr;
  };

  /// Builds and solves one method's model against the current (frozen)
  /// summary store. Pure with respect to engine state: all writes are
  /// returned as deferred updates inside the outcome. Safe to run
  /// concurrently with other analyzeOne calls. With a non-null \p Probe
  /// (memo armed), the pick first tries replay().
  SolveOutcome analyzeOne(MethodDecl *M, MemoProbe *Probe = nullptr);

  /// Every summary-prior application \p M's model makes — own interface
  /// targets first, then call sites in PFG order. Which nodes and
  /// targets these are depends on the PFG and on which summary targets
  /// exist, never on summary values, so phase 1 builds the list once
  /// per model.
  std::vector<Application> applicationsOf(MethodDecl *M,
                                          const Pfg &G) const;

  /// The replay path of one pick whose \p Probe holds its prior stream:
  /// the memo, then, on a memo miss with a cache armed, a cache lookup.
  /// Returns the replayed outcome, or nothing when the pick must be
  /// solved; \p Probe records the keys and the cache's answer. Runs in
  /// the wave job and writes only \p Probe.
  std::optional<SolveOutcome> replay(MethodDecl *M, MemoProbe &Probe) const;

  /// Per-target evidence helper: converts the solved marginals /
  /// graph-side cavity beliefs at \p App's node, against the prior
  /// \p Applied set there, into the odds vector of App's update
  /// (call-site evidence on preconditions is weaken-only: odds capped at
  /// 1). No engine state is touched.
  std::vector<double>
  computeEvidence(const Application &App, std::span<const double> Applied,
                  const std::vector<double> &Marginals,
                  const std::vector<double> &GraphBelief) const;

  /// Builds the skeleton summary store over every method of the program
  /// and the declaration-index table over it. Asserts that declaration
  /// indices are unique, which Sema guarantees.
  void buildSummaryStore();

  /// \p M's summary; null for a method outside the program.
  MethodSummary *summaryOf(const MethodDecl *M) const {
    return M->DeclIndex < Decls.size() && Decls[M->DeclIndex].Method == M
               ? Decls[M->DeclIndex].Summary
               : nullptr;
  }

  /// True when \p M has a body whose model phase 1 built.
  bool hasModel(const MethodDecl *M) const {
    return Models[M->DeclIndex].has_value();
  }

  /// Prints the ANEK_DEBUG_EVIDENCE line of the update \p Odds makes
  /// through \p App to stderr. Every input is a field of the application
  /// or of the odds, so a replayed update prints what its fresh solve
  /// would have.
  void printEvidence(const Application &App,
                     const std::vector<double> &Odds) const;

  /// Marks \p M to be picked again, unless it cannot be.
  void markDirty(const MethodDecl *M) {
    if (hasModel(M) && !Failed[M->DeclIndex])
      Dirty[M->DeclIndex] = 1;
  }

  /// The check a record read back from the cache must pass before the
  /// merge trusts it: it is \p M's, its cascade exit is in range, and it
  /// holds one odds vector per application of \p M, each of its target's
  /// arity, and every entry finite and within the evidence cap. Records
  /// computed or memoized in this engine are trusted without it.
  Status validateOutcome(const SolveOutcome &O, const MethodDecl *M) const;

  // Replay (DESIGN.md, "Incremental inference and the summary cache").
  // The engine memoizes individual SOLVE invocations: both keys digest
  // every input the solve depends on, so a hit replays the stored
  // evidence byte-identically by construction.

  /// True when a SOLVE is a pure function of its method and applied
  /// priors: no analysis-perturbing fault is armed. It alone arms the
  /// memo, and the cache behind it.
  bool solvesReplayable() const;

  /// Arms the cache for this run when one is attached and the memo is
  /// armed, and hashes each method's run-constant key prefix: the
  /// program-environment/options digest, the method's transitive SCC
  /// content chain hash and its declaration index. Leaves Cache null
  /// otherwise.
  void prepareCache();

  Program &Prog;
  const InferOptions &Opts;
  DiagnosticEngine *Diags;
  CallGraph Graph;
  /// ANEK_DEBUG_EVIDENCE was set when the engine was made: the merge
  /// prints every update it applies.
  const bool DebugEvidence;
  /// Declaration-ordered, so extraction and the result iterate
  /// deterministically.
  MethodDeclMap<MethodSummary> Summaries;
  /// Declaration index -> method and summary (see buildSummaryStore).
  std::vector<DeclSlot> Decls;
  // Per declaration index, sized with Decls: the merge touches these per
  // outcome, so they are dense vectors rather than maps.
  /// The method's model; absent for bodiless methods and failed lowering.
  std::vector<std::optional<MethodData>> Models;
  /// Present once the method was picked or its model failed.
  std::vector<std::optional<MethodReport>> Reports;
  /// Waiting to be picked again.
  std::vector<uint8_t> Dirty;
  /// Isolated after a failed SOLVE; never picked again.
  std::vector<uint8_t> Failed;

  // The run-local SOLVE memo. Armed by run() when solves are
  // replayable. Jobs only read it during a wave; the scheduling thread
  // inserts between waves.
  bool MemoArmed = false;
  std::unordered_map<uint64_t, MemoEntry> Memo;

  /// Non-null only when Opts.Cache is set and the memo is armed (see
  /// prepareCache); KeyPrefix is filled alongside it.
  SolveCache *Cache = nullptr;
  /// Per declaration index: the cache key's run-constant prefix. Its
  /// chain-hash part changes for the whole reverse-reachable cone of an
  /// edited method — that is the cache's invalidation propagation.
  std::vector<HashStream> KeyPrefix;
};

} // namespace

std::vector<double>
InferEngine::computeEvidence(const Application &App,
                             std::span<const double> Applied,
                             const std::vector<double> &Marginals,
                             const std::vector<double> &GraphBelief) const {
  const bool WeakenOnly = App.IsRequirement;
  // Two evidence channels, chosen by direction:
  //
  //  - Requirement-side call votes (WeakenOnly) use the graph-side cavity
  //    belief (the node's applied prior excluded): a caller that knows
  //    nothing about the object yields exactly 0.5 = neutral, so
  //    ignorance never erodes an API spec, while genuine contradiction
  //    (e.g. ALIVE evidence against a HASNEXT requirement) votes below.
  //
  //  - Everything else measures the solved marginal against the applied
  //    prior: that integrates long equality chains strongly enough for
  //    body evidence to clear the extraction threshold. A probability
  //    deadband absorbs the attenuation a strong prior suffers from
  //    merely-uninformed neighbors.
  // The weaken deadband is wide: post-condition priors of *other* calls
  // on the same chain can depress a cavity belief to ~0.4 without any
  // real counter-evidence; genuine contradiction (a state test or a
  // conflicting spec one hop away) lands near 0.1-0.2.
  constexpr double WeakenDeadband = 0.2;
  constexpr double BoostDeadband = 0.15;

  std::vector<double> Odds(App.Target->size(), 1.0);
  for (size_t I = 0, E = std::min(Applied.size(), Marginals.size()); I != E;
       ++I) {
    if (I >= Odds.size())
      break;
    double Ratio = 1.0;
    if (WeakenOnly) {
      double Belief = I < GraphBelief.size() ? GraphBelief[I] : 0.5;
      if (std::fabs(Belief - 0.5) < WeakenDeadband)
        continue;
      Ratio = std::min(probToOdds(Belief), 1.0);
    } else {
      if (std::fabs(Marginals[I] - Applied[I]) < BoostDeadband)
        continue;
      Ratio = oddsRatio(Marginals[I], Applied[I]);
    }
    Odds[I] = std::clamp(Ratio, 1.0 / EvidenceOddsCap, EvidenceOddsCap);
  }
  return Odds;
}

std::vector<InferEngine::Application>
InferEngine::applicationsOf(MethodDecl *M, const Pfg &G) const {
  std::vector<Application> Applications;
  auto Apply = [&](PfgNodeId Node, TargetSummary *Target,
                   MethodDecl *SummaryOwner, bool IsRequirement,
                   CallSiteKey Site) {
    if (Node == NoPfgNode || !Target)
      return;
    Application &App = Applications.emplace_back();
    App.Node = Node;
    App.Target = Target;
    App.SummaryOwner = SummaryOwner;
    App.IsSelf = !Site.first;
    App.IsRequirement = IsRequirement;
    App.Site = Site;
  };

  // The method's own interface nodes: prior = summary minus own evidence.
  MethodSummary &Self = *summaryOf(M);
  CallSiteKey NoSite{nullptr, 0};
  Apply(G.ReceiverPre, Self.RecvPre ? &*Self.RecvPre : nullptr, M, false,
        NoSite);
  Apply(G.ReceiverPost, Self.RecvPost ? &*Self.RecvPost : nullptr, M, false,
        NoSite);
  for (size_t I = 0; I != G.ParamPre.size(); ++I) {
    if (I < Self.ParamPre.size() && Self.ParamPre[I])
      Apply(G.ParamPre[I], &*Self.ParamPre[I], M, false, NoSite);
    if (I < Self.ParamPost.size() && Self.ParamPost[I])
      Apply(G.ParamPost[I], &*Self.ParamPost[I], M, false, NoSite);
  }
  if (Self.Result)
    Apply(G.ResultNode, &*Self.Result, M, false, NoSite);

  // Call sites: cavity priors from callee summaries (APPLYSUMMARY). The
  // callee's preconditions are the site's requirements.
  for (uint32_t S = 0; S != G.CallSites.size(); ++S) {
    const PfgCallSite &Site = G.CallSites[S];
    if (!Site.Callee)
      continue;
    MethodSummary *CalleeSummary = summaryOf(Site.Callee);
    if (!CalleeSummary)
      continue;
    MethodSummary &Callee = *CalleeSummary;
    MethodDecl *D = Site.Callee;
    CallSiteKey Key{M, S};
    Apply(Site.RecvPre, Callee.RecvPre ? &*Callee.RecvPre : nullptr, D, true,
          Key);
    Apply(Site.RecvPost, Callee.RecvPost ? &*Callee.RecvPost : nullptr, D,
          false, Key);
    for (size_t I = 0; I != Site.ArgPre.size(); ++I) {
      if (I < Callee.ParamPre.size() && Callee.ParamPre[I])
        Apply(Site.ArgPre[I], &*Callee.ParamPre[I], D, true, Key);
      if (I < Callee.ParamPost.size() && Callee.ParamPost[I])
        Apply(Site.ArgPost[I], &*Callee.ParamPost[I], D, false, Key);
    }
    if (Callee.Result)
      Apply(Site.Result, &*Callee.Result, D, false, Key);
  }
  return Applications;
}

std::optional<summaryio::SolveOutcome>
InferEngine::replay(MethodDecl *M, MemoProbe &Probe) const {
  // The memo: the applied priors are the solve's only varying input, so
  // an exact repeat of the stream replays the stored outcome. The digest
  // picks the entry; the full stream comparison makes the hit exact.
  HashStream H;
  H.u32(M->DeclIndex);
  for (double V : Probe.Stream)
    H.f64(V);
  Probe.Key = H.digest();
  auto It = Memo.find(Probe.Key);
  if (It != Memo.end() && It->second.Outcome.DeclIndex == M->DeclIndex &&
      sameBits(It->second.Stream, Probe.Stream)) {
    SolveOutcome Replay = It->second.Outcome;
    Replay.SolveSeconds = 0.0;
    Probe.Replayed = true;
    return Replay;
  }
  if (!Cache)
    return std::nullopt;

  // The cache, for a state this run has not seen. Its key is the
  // method's prefix followed by the memo key. The prefix pins the
  // application list, since the program environment, the SCC chain and
  // the declaration index fix the method's PFG and every summary target,
  // so the stream's exact bits are the rest of the solve's input: replay
  // is byte-safe within a run's fixpoint iteration (the same method
  // re-solved after its callees' summaries moved gets a different key),
  // while a warm run that replays wave by wave reproduces the same
  // summary trajectory and therefore the same sequence of keys.
  HashStream Key = KeyPrefix[M->DeclIndex];
  Key.u64(Probe.Key);
  Probe.CacheKey = Key.digest();
  CachedSolve Entry;
  Probe.Lookup = Cache->lookup(M->qualifiedName(), Probe.CacheKey, Entry);
  if (Probe.Lookup != CacheLookup::Hit)
    return std::nullopt;
  // Failures are never stored, so a failed record is as stale as one
  // that does not fit the current program.
  if (Entry.Failed || !validateOutcome(Entry, M)) {
    Probe.Lookup = CacheLookup::Invalidated;
    return std::nullopt;
  }
  return Entry;
}

summaryio::SolveOutcome InferEngine::analyzeOne(MethodDecl *M,
                                                MemoProbe *Probe) {
  SolveOutcome Out;
  Out.DeclIndex = M->DeclIndex;

  // Fault 'solve-fail': this method's SOLVE step fails outright, proving
  // the isolation path keeps the rest of the program inferable. Nothing
  // else fails a solve: the cascade always ends with usable marginals.
  if (faults::anyActive() &&
      faults::active(FaultKind::SolveFailure, M->qualifiedName())) {
    Out.Failed = true;
    Out.Error =
        faults::injectedError(FaultKind::SolveFailure, M->qualifiedName())
            .str();
    return Out;
  }

  const MethodData &Model = *Models[M->DeclIndex];
  const std::vector<Application> &Applications = Model.Applications;

  // Pool every application's prior into one stream, in application
  // order: application K's slice is the next Target->size() entries. The
  // priors come from the wave's frozen summary store; the writes go
  // through the outcome's deferred odds.
  std::vector<double> Unprobed;
  std::vector<double> &Stream = Probe ? Probe->Stream : Unprobed;
  for (const Application &App : Applications) {
    const std::vector<double> Prior =
        App.IsSelf ? App.Target->pooledWithoutSelf()
                   : transformPrior(App.Target->pooledWithoutSite(App.Site),
                                    App.IsRequirement);
    Stream.insert(Stream.end(), Prior.begin(), Prior.end());
  }
  if (Probe)
    if (std::optional<SolveOutcome> Replay = replay(M, *Probe))
      return std::move(*Replay);

  FactorGraph FG;
  PfgVarMap Vars(Model.G, FG);
  generateConstraints(Model.G, FG, Vars, Opts.Constraints);
  const std::span<const double> Priors(Stream);
  size_t At = 0;
  for (const Application &App : Applications) {
    setMarginalPriors(FG, Vars.node(App.Node),
                      Priors.subspan(At, App.Target->size()));
    At += App.Target->size();
  }

  Timer SolveTimer;
  Marginals GraphBelief;
  MethodReport Report;
  const Marginals Solution =
      solveCascade(FG, ModularBpOptions, Opts.Bp, Report, &GraphBelief);
  Out.SolveSeconds = SolveTimer.seconds();
  Out.Variables = FG.variableCount();
  Out.Factors = FG.factorCount();
  Out.Exit = static_cast<uint8_t>(Report.Exit);
  Out.Reason = std::move(Report.Reason);
  Out.Solve = std::move(Report.Solve);
  Out.Solves = 1;

  // Compute the evidence to push back into summaries (UPDATESUMMARY) as
  // deferred odds; the scheduling thread applies them after the wave.
  Out.Odds.reserve(Applications.size());
  At = 0;
  for (const Application &App : Applications) {
    const std::span<const double> Applied =
        Priors.subspan(At, App.Target->size());
    At += Applied.size();
    Out.Odds.push_back(
        computeEvidence(App, Applied,
                        readMarginals(Vars.node(App.Node), Solution),
                        readMarginals(Vars.node(App.Node), GraphBelief)));
  }
  return Out;
}

void InferEngine::buildSummaryStore() {
  // Priors and shapes are a pure function of the AST.
  for (const auto &Type : Prog.Types)
    for (const auto &M : Type->Methods) {
      MethodSummary &Summary =
          Summaries
              .emplace(M.get(), MethodSummary::forMethod(*M, SpecPriorHigh,
                                                         SpecPriorLow))
              .first->second;
      if (M->DeclIndex >= Decls.size())
        Decls.resize(M->DeclIndex + 1);
      assert(!Decls[M->DeclIndex].Method &&
             "declaration indices must be unique (run Sema first)");
      Decls[M->DeclIndex] = {M.get(), &Summary};
    }
  Models.resize(Decls.size());
  Reports.resize(Decls.size());
  Dirty.assign(Decls.size(), 0);
  Failed.assign(Decls.size(), 0);
}

void InferEngine::printEvidence(const Application &App,
                                const std::vector<double> &Odds) const {
  std::string Line = "evidence " + App.SummaryOwner->qualifiedName();
  if (App.IsSelf)
    Line += " self";
  else
    Line += " site " + App.Site.first->qualifiedName() + "#" +
            std::to_string(App.Site.second);
  // A site's precondition vote is the only weaken-only channel (see
  // computeEvidence).
  Line += App.IsRequirement ? " [weaken]" : " [boost]";
  for (size_t I = 0; I != Odds.size(); ++I)
    if (Odds[I] != 1.0)
      Line += " v" + std::to_string(I) + "=" + std::to_string(Odds[I]);
  std::fprintf(stderr, "%s\n", Line.c_str());
}

Status InferEngine::validateOutcome(const SolveOutcome &O,
                                   const MethodDecl *M) const {
  auto Reject = [](const std::string &Why) {
    return Status::error(ErrorCode::InvalidArgument, Why);
  };
  if (O.DeclIndex != M->DeclIndex)
    return Reject("outcome for method #" + std::to_string(O.DeclIndex) +
                  " filed as '" + M->qualifiedName() + "'");
  if (O.Exit >= NumCascadeExits)
    return Reject("unknown cascade exit " + std::to_string(O.Exit));
  const std::vector<Application> &Applications =
      Models[M->DeclIndex]->Applications;
  if (O.Odds.size() != Applications.size())
    return Reject(std::to_string(O.Odds.size()) + " odds vectors for " +
                  std::to_string(Applications.size()) +
                  " applications of '" + M->qualifiedName() + "'");
  for (size_t K = 0; K != Applications.size(); ++K) {
    const Application &App = Applications[K];
    if (O.Odds[K].size() != App.Target->size())
      return Reject("odds arity mismatch for '" +
                    App.SummaryOwner->qualifiedName() + "' (" +
                    std::to_string(O.Odds[K].size()) + " vs " +
                    std::to_string(App.Target->size()) + ")");
    for (double Odds : O.Odds[K])
      if (!(std::isfinite(Odds) && Odds >= 1.0 / EvidenceOddsCap &&
            Odds <= EvidenceOddsCap))
        return Reject("odds " + std::to_string(Odds) + " for '" +
                      App.SummaryOwner->qualifiedName() +
                      "' outside the evidence cap");
  }
  return Status::ok();
}

namespace {

void hashAnnotation(HashStream &H, const RawAnnotation &A) {
  H.str(A.Name);
  H.u32(static_cast<uint32_t>(A.Args.size()));
  for (const auto &[K, V] : A.Args) {
    H.str(K);
    H.str(V);
  }
  H.u32(static_cast<uint32_t>(A.ListArgs.size()));
  for (const std::string &S : A.ListArgs)
    H.str(S);
}

/// Digest of everything about \p M *except* its body: the part other
/// methods' models can see (callee resolution, declared-spec priors,
/// summary shapes). Part of the environment hash for every entry.
uint64_t methodSignatureHash(const MethodDecl &M) {
  HashStream H;
  H.str(M.Name);
  H.u8(M.IsStatic ? 1 : 0);
  H.u8(M.IsCtor ? 1 : 0);
  H.u8(M.IsTest ? 1 : 0);
  H.str(M.ReturnType.str());
  H.u32(static_cast<uint32_t>(M.Params.size()));
  for (const ParamDecl &P : M.Params) {
    H.str(P.Type.str());
    H.str(P.Name);
  }
  H.u32(static_cast<uint32_t>(M.Annotations.size()));
  for (const RawAnnotation &A : M.Annotations)
    hashAnnotation(H, A);
  return H.digest();
}

/// Signature plus the body as the pretty-printer re-serializes it. The
/// printer reads the parsed AST, so this is a token-stream hash: editing
/// whitespace or comments leaves the digest unchanged, editing any token
/// the parser kept changes it.
uint64_t methodContentHash(const MethodDecl &M) {
  HashStream H;
  H.str(M.Owner ? M.Owner->Name : std::string());
  H.u64(methodSignatureHash(M));
  H.u8(M.Body ? 1 : 0);
  if (M.Body)
    H.str(printStmt(*M.Body));
  return H.digest();
}

} // namespace

bool InferEngine::solvesReplayable() const {
  // Analysis-perturbing faults change what a fresh solve would compute;
  // replaying across them would either launder a faulted result into
  // clean runs or replay a clean result past an armed fault. The cache's
  // wire-corrupt probe does not perturb results (a damaged entry is
  // re-solved), so it keeps replay on.
  return !(faults::anyActive() &&
           (faults::kindActive(FaultKind::BpNonConvergence) ||
            faults::kindActive(FaultKind::AllocPerturb) ||
            faults::kindActive(FaultKind::SolveFailure)));
}

void InferEngine::prepareCache() {
  Cache = nullptr;
  if (!Opts.Cache || !MemoArmed)
    return;

  // Environment digest: the wire version (entries are sealed blobs, and
  // the version moves with every change to what a SOLVE computes, the
  // model's constants included), the constraint toggles, and the
  // type/signature/annotation level of the program — everything that
  // shapes summary skeletons and callee resolution without being any one
  // method's body. Because it covers every type's method count and
  // ordered signatures, any edit that shifts a declaration index changes
  // every key, which is what lets entries name methods by index.
  // MaxIters is deliberately excluded: it steers scheduling, not what
  // one SOLVE computes, so entries stay valid across it.
  HashStream Env;
  Env.u32(summaryio::WireVersion);
  const ConstraintOptions &C = Opts.Constraints;
  Env.u8(C.EnableH1 ? 1 : 0);
  Env.u8(C.EnableH2 ? 1 : 0);
  Env.u8(C.EnableH3 ? 1 : 0);
  Env.u8(C.EnableH4 ? 1 : 0);
  Env.u8(C.EnableH5 ? 1 : 0);
  Env.u8(C.EnableH6 ? 1 : 0);
  Env.u8(C.LogicalOnly ? 1 : 0);
  Env.u8(C.EnableExclusivity ? 1 : 0);
  Env.u8(C.KindMutex ? 1 : 0);
  for (const auto &Type : Prog.Types) {
    Env.str(Type->Name);
    Env.u8(Type->IsInterface ? 1 : 0);
    Env.str(Type->SuperName);
    Env.u32(static_cast<uint32_t>(Type->InterfaceNames.size()));
    for (const std::string &I : Type->InterfaceNames)
      Env.str(I);
    Env.u32(static_cast<uint32_t>(Type->TypeParams.size()));
    for (const std::string &P : Type->TypeParams)
      Env.str(P);
    Env.u32(static_cast<uint32_t>(Type->Annotations.size()));
    for (const RawAnnotation &A : Type->Annotations)
      hashAnnotation(Env, A);
    Env.u32(static_cast<uint32_t>(Type->Fields.size()));
    for (const FieldDecl &F : Type->Fields) {
      Env.str(F.Name);
      Env.str(F.Type.str());
    }
    Env.u32(static_cast<uint32_t>(Type->Methods.size()));
    for (const auto &M : Type->Methods)
      Env.u64(methodSignatureHash(*M));
  }
  const uint64_t EnvHash = Env.digest();

  // Per-SCC transitive chain hashes, computed callees-first over the
  // condensation (sccGroups is reverse-topological, so every callee
  // group's hash exists before its callers fold it in). Editing one
  // method's body changes its SCC's hash and, through the folds, the
  // hash of every SCC that can reach it — exactly the set of methods
  // whose solves could observe the edit through summaries.
  KeyPrefix.assign(Decls.size(), HashStream());
  std::vector<CallGraph::SccGroup> Groups = Graph.sccGroups();
  std::vector<uint64_t> GroupHash(Groups.size(), 0);
  for (size_t S = 0; S != Groups.size(); ++S) {
    HashStream H;
    for (MethodDecl *Member : Groups[S].Members)
      H.u64(methodContentHash(*Member));
    for (unsigned Callee : Groups[S].CalleeGroups)
      H.u64(GroupHash[Callee]);
    GroupHash[S] = H.digest();
    for (MethodDecl *Member : Groups[S].Members) {
      HashStream &Prefix = KeyPrefix[Member->DeclIndex];
      Prefix.u64(EnvHash);
      Prefix.u64(GroupHash[S]);
      Prefix.u32(Member->DeclIndex);
    }
  }
  Cache = Opts.Cache;
}

InferResult InferEngine::run() {
  InferResult Result;

  // One pool serves both phases' jobs.
  std::unique_ptr<ThreadPool> Pool;
  unsigned JobCount =
      Opts.Parallelism ? Opts.Parallelism : ThreadPool::defaultParallelism();
  if (JobCount > 1)
    Pool = std::make_unique<ThreadPool>(JobCount);
  if (telemetry::metering())
    telemetry::gauge("infer.parallelism")
        .set(static_cast<double>(Pool ? Pool->parallelism() : 1));

  // Phase 1 (Figure 9 lines 2-6): initialize variables, models, worklist.
  // Model construction is isolated per method: one body the lowering
  // chokes on must not take whole-program inference down with it. The
  // models are independent (each job reads the AST and the summary
  // skeleton and writes only its method's slot), so they are built on
  // the pool; the failures are filed afterwards, in body order, so the
  // diagnostics do not depend on the thread count.
  telemetry::Span Phase1("infer.phase1.models", "infer");
  std::vector<MethodDecl *> Bodies = Prog.methodsWithBodies();
  if (Phase1.active())
    Phase1.arg("methods", static_cast<uint64_t>(Bodies.size()));
  buildSummaryStore();
  std::vector<std::optional<std::string>> ModelErrors(Bodies.size());
  parallelFor(Pool.get(), Bodies.size(), [&](size_t I) {
    MethodDecl *M = Bodies[I];
    try {
      MethodData MD;
      MD.G = buildPfg(lowerToIr(*M));
      MD.Applications = applicationsOf(M, MD.G);
      Models[M->DeclIndex] = std::move(MD);
    } catch (const std::exception &E) {
      ModelErrors[I] = E.what();
    }
  });
  for (size_t I = 0; I != Bodies.size(); ++I) {
    if (!ModelErrors[I])
      continue;
    MethodDecl *M = Bodies[I];
    const std::string &What = *ModelErrors[I];
    MethodReport &Report = Reports[M->DeclIndex].emplace();
    Report.Failed = true;
    Report.Error = Status::error(ErrorCode::Internal, What).str();
    ++Result.MethodsFailed;
    if (Diags)
      Diags->warning(M->Loc, "model construction for '" +
                                 M->qualifiedName() + "' failed (" + What +
                                 "); method skipped, conservative summary "
                                 "used");
  }

  Phase1.close();

  unsigned MaxIters =
      Opts.MaxIters ? Opts.MaxIters
                    : static_cast<unsigned>(3 * Bodies.size());

  // Phase 2 (lines 8-21): bounded iteration, scheduled as rounds of
  // reverse-topological SCC waves. Jobs within a wave read the summary
  // store as it stood when the wave began and return deferred updates;
  // the merge below applies them in declaration order, so results do not
  // depend on the worker count. A method whose analysis fails is
  // isolated: it keeps its conservative default summary (declared priors
  // only), a buffered diagnostic records why, and the schedule moves on
  // so every other method still gets a spec.
  telemetry::Span Phase2("infer.phase2.waves", "infer");
  std::vector<std::vector<MethodDecl *>> Waves = Graph.sccWaves();

  // Arm the replay path: the memo answers in-run repeats, and the cache
  // (a no-op unless Opts.Cache is set) answers the states the run has
  // not seen. The chain hashes prepareCache folds into the key prefixes
  // are the run's invalidation frontier: they never change within a
  // run, while the applied-prior part of each key tracks the fixpoint
  // iteration.
  MemoArmed = solvesReplayable();
  {
    telemetry::Span CachePrep("cache.prepare", "infer");
    prepareCache();
    if (CachePrep.active())
      CachePrep.argBool("armed", Cache != nullptr);
  }

  for (const auto &Wave : Waves)
    for (MethodDecl *M : Wave)
      markDirty(M);
  // Phase-2 failure diagnostics are buffered per method and flushed in
  // source (declaration) order below: emission order must not depend on
  // which round or wave a method happened to fail in.
  MethodDeclMap<std::string> BufferedWarnings;

  std::vector<uint32_t> MovedOwners;
  unsigned Round = 0, WaveIndex = 0;
  auto AnyDirty = [&] {
    return std::find(Dirty.begin(), Dirty.end(), 1) != Dirty.end();
  };
  while (AnyDirty() && Result.WorklistPicks < MaxIters) {
    bool AnyRun = false;
    ++Round;
    for (const auto &Wave : Waves) {
      // The wave is already in declaration order; so is the batch.
      std::vector<MethodDecl *> Batch;
      for (MethodDecl *M : Wave)
        if (Dirty[M->DeclIndex])
          Batch.push_back(M);
      if (Result.WorklistPicks + Batch.size() > MaxIters)
        Batch.resize(MaxIters - Result.WorklistPicks);
      if (Batch.empty())
        continue;
      for (MethodDecl *M : Batch)
        Dirty[M->DeclIndex] = 0;
      Result.WorklistPicks += static_cast<unsigned>(Batch.size());
      AnyRun = true;

      telemetry::Span WaveSpan("infer.wave", "infer");
      if (WaveSpan.active()) {
        WaveSpan.arg("round", Round);
        WaveSpan.arg("wave", WaveIndex);
        WaveSpan.arg("methods", static_cast<uint64_t>(Batch.size()));
      }
      if (telemetry::metering())
        telemetry::counter("infer.waves").add(1);
      ++WaveIndex;

      // Build + solve every job in the batch against the frozen store.
      // Each job wraps itself in a method span and records its run time.
      std::vector<SolveOutcome> Outcomes(Batch.size());
      std::vector<MemoProbe> Probes(MemoArmed ? Batch.size() : 0);
      parallelFor(Pool.get(), Batch.size(), [&](size_t I) {
        telemetry::Span JobSpan("infer.method", "infer");
        const bool Metering = telemetry::metering();
        const int64_t RunStartUs = Metering ? telemetry::nowUs() : 0;
        try {
          Outcomes[I] =
              analyzeOne(Batch[I], MemoArmed ? &Probes[I] : nullptr);
        } catch (const std::exception &E) {
          Outcomes[I].Failed = true;
          Outcomes[I].Error =
              Status::error(ErrorCode::Internal, E.what()).str();
        }
        if (Metering)
          telemetry::histogram("infer.method_run_us")
              .record(static_cast<double>(telemetry::nowUs() - RunStartUs));
        if (JobSpan.active()) {
          const SolveOutcome &Out = Outcomes[I];
          JobSpan.arg("method", Batch[I]->qualifiedName());
          if (Out.Failed) {
            JobSpan.argBool("failed", true);
          } else {
            JobSpan.arg("vars", Out.Variables);
            JobSpan.arg("factors", Out.Factors);
            const auto Exit = static_cast<CascadeExit>(Out.Exit);
            JobSpan.arg("exit", cascadeExitName(Exit));
            if (Exit != CascadeExit::None)
              JobSpan.arg("reason", Out.Reason);
          }
        }
      });

      // File what the wave learnt, on this thread and in batch order,
      // before the merge: count each cache answer,
      // store fresh solves in the cache, and memoize fresh solves and
      // validated cache hits alike, still at Solves = 1 (the merge below
      // adds the method's earlier solves to the live report only). Failed
      // solves are neither stored nor memoized: a failure must re-run,
      // not replay (the next run may not hit the fault or bug).
      unsigned WaveReplays = 0;
      for (size_t I = 0; I != Probes.size(); ++I) {
        MemoProbe &Probe = Probes[I];
        if (Probe.Replayed) {
          ++WaveReplays;
          continue;
        }
        if (Probe.Lookup) {
          switch (*Probe.Lookup) {
          case CacheLookup::Hit:
            ++Result.Cache.Hits;
            break;
          case CacheLookup::Miss:
            ++Result.Cache.Misses;
            break;
          case CacheLookup::Invalidated:
            ++Result.Cache.Invalidated;
            break;
          case CacheLookup::Corrupt:
            ++Result.Cache.Corrupt;
            break;
          }
        }
        if (Outcomes[I].Failed)
          continue;
        if (Probe.Lookup && *Probe.Lookup != CacheLookup::Hit) {
          Cache->store(Batch[I]->qualifiedName(), Probe.CacheKey,
                       Outcomes[I]);
          ++Result.Cache.Stores;
        }
        MemoEntry Entry;
        Entry.Stream = std::move(Probe.Stream);
        Entry.Outcome = Outcomes[I];
        Memo.emplace(Probe.Key, std::move(Entry));
      }
      Result.MemoReplays += WaveReplays;
      if (WaveSpan.active())
        WaveSpan.arg("replayed", WaveReplays);

      // Merge, on this thread in declaration (= batch) order: each
      // outcome's report, statistics and failure, then its odds vectors,
      // each applied through the method's application it lines up with as
      // the pass reaches it (and traced, when ANEK_DEBUG_EVIDENCE is set).
      // Every target thus sees its updates in batch order and returns the
      // same deltas at any -j N.
      telemetry::Span MergeSpan("infer.merge", "infer");
      unsigned MergedUpdates = 0, Requeued = 0;
      MovedOwners.clear();
      for (size_t I = 0; I != Batch.size(); ++I) {
        MethodDecl *M = Batch[I];
        SolveOutcome &Out = Outcomes[I];
        std::optional<MethodReport> &Slot = Reports[M->DeclIndex];
        const unsigned PrevSolves = Slot ? Slot->Solves : 0;
        MethodReport &Report = Slot.emplace();
        Report.Exit = static_cast<CascadeExit>(Out.Exit);
        Report.Reason = std::move(Out.Reason);
        Report.Solve = std::move(Out.Solve);
        Report.Solves = PrevSolves + Out.Solves;
        if (Out.Failed) {
          // A failed method is never picked again, so this is its first.
          Report.Failed = true;
          Report.Error = Out.Error;
          Failed[M->DeclIndex] = 1;
          ++Result.MethodsFailed;
          BufferedWarnings.emplace(
              M, "inference for '" + M->qualifiedName() + "' failed (" +
                     Out.Error +
                     "); method skipped, conservative summary used");
          continue;
        }
        Result.SolveSeconds += Out.SolveSeconds;
        Result.TotalVariables += static_cast<unsigned>(Out.Variables);
        Result.TotalFactors += static_cast<unsigned>(Out.Factors);
        if (Report.Exit != CascadeExit::None) {
          ++Result.FallbackSolves;
          ++Result.FallbackExits[Out.Exit];
        }
        const std::vector<Application> &Applications =
            Models[M->DeclIndex]->Applications;
        for (size_t K = 0; K != Out.Odds.size(); ++K) {
          const Application &App = Applications[K];
          if (DebugEvidence)
            printEvidence(App, Out.Odds[K]);
          const double Delta =
              App.IsSelf ? App.Target->setSelfOdds(Out.Odds[K])
                         : App.Target->setSiteOdds(App.Site, Out.Odds[K]);
          if (Delta > SummaryTolerance) {
            ++Requeued;
            MovedOwners.push_back(App.SummaryOwner->DeclIndex);
          }
        }
        MergedUpdates += static_cast<unsigned>(Out.Odds.size());
      }
      // A changed summary invalidates the models that consume it: the
      // owning method itself and its callers (they applied the stale
      // summary). They rerun in a later wave or the next round. The marks
      // are a set union, taken once every failure of the wave is filed.
      std::sort(MovedOwners.begin(), MovedOwners.end());
      MovedOwners.erase(std::unique(MovedOwners.begin(), MovedOwners.end()),
                        MovedOwners.end());
      for (uint32_t Owner : MovedOwners) {
        MethodDecl *Moved = Decls[Owner].Method;
        markDirty(Moved);
        for (MethodDecl *Caller : Graph.callers(Moved))
          markDirty(Caller);
      }
      if (MergeSpan.active()) {
        MergeSpan.arg("updates", MergedUpdates);
        MergeSpan.arg("requeued", Requeued);
      }
      if (telemetry::metering())
        telemetry::counter("infer.summary_updates").add(MergedUpdates);
      if (Result.WorklistPicks >= MaxIters)
        break;
    }
    if (!AnyRun)
      break; // Every dirty method is failed or budget-excluded.
  }
  for (const auto &[M, Message] : BufferedWarnings)
    if (Diags)
      Diags->warning(M->Loc, Message);
  Result.MethodsAnalyzed = static_cast<unsigned>(Bodies.size());
  if (Phase2.active())
    Phase2.arg("picks", Result.WorklistPicks);
  Phase2.close();

  telemetry::Span Phase3("infer.phase3.extract", "infer");

  // Phase 3 (lines 22-29): extract deterministic specifications. A failed
  // method is conservatively silent: no inferred spec beats a spec built
  // from a summary its own evidence never reached.
  for (MethodDecl *M : Bodies) {
    if (const std::optional<MethodReport> &Report = Reports[M->DeclIndex];
        Report && Report->Failed)
      continue;
    if (M->HasDeclaredSpec)
      continue;
    MethodSpec Spec =
        extractSpec(Summaries.at(M),
                    static_cast<unsigned>(M->Params.size()),
                    ExtractionThreshold);
    if (M->IsCtor && Spec.Result) {
      // A constructor's "result" is its receiver after construction.
      if (!Spec.ReceiverPost)
        Spec.ReceiverPost = Spec.Result;
      Spec.Result.reset();
    }
    if (!Spec.isEmpty())
      Result.Inferred.emplace(M, std::move(Spec));
  }

  Result.Summaries = std::move(Summaries);
  for (uint32_t I = 0; I != Reports.size(); ++I)
    if (Reports[I])
      Result.Reports.emplace_hint(Result.Reports.end(), Decls[I].Method,
                                  std::move(*Reports[I]));
  if (Opts.Cache && telemetry::metering()) {
    telemetry::counter("cache.hit").add(Result.Cache.Hits);
    telemetry::counter("cache.miss").add(Result.Cache.Misses);
    telemetry::counter("cache.invalidated").add(Result.Cache.Invalidated);
    telemetry::counter("cache.corrupt").add(Result.Cache.Corrupt);
    telemetry::counter("cache.store").add(Result.Cache.Stores);
  }
  if (Phase3.active())
    Phase3.arg("inferred", static_cast<uint64_t>(Result.Inferred.size()));
  if (telemetry::metering()) {
    telemetry::counter("infer.worklist_picks").add(Result.WorklistPicks);
    telemetry::counter("infer.replays").add(Result.MemoReplays);
    telemetry::counter("infer.methods_analyzed")
        .add(Result.MethodsAnalyzed);
    telemetry::counter("infer.methods_failed").add(Result.MethodsFailed);
    telemetry::counter("infer.fallback_solves").add(Result.FallbackSolves);
    // How the fallbacks ended, per pick like infer.fallback_solves.
    telemetry::counter("cascade.exit.near_converged_bp")
        .add(Result.FallbackExits[unsigned(CascadeExit::NearConvergedBp)]);
    telemetry::counter("cascade.exit.exact")
        .add(Result.FallbackExits[unsigned(CascadeExit::Exact)]);
    telemetry::counter("cascade.exit.kept_degraded")
        .add(Result.FallbackExits[unsigned(CascadeExit::KeptDegraded)]);
    telemetry::counter("infer.specs_inferred")
        .add(Result.Inferred.size());
  }
  return Result;
}

InferResult anek::runAnekInfer(Program &Prog, const InferOptions &Opts,
                               DiagnosticEngine *Diags) {
  InferEngine Engine(Prog, Opts, Diags);
  return Engine.run();
}
