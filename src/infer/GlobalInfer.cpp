//===- GlobalInfer.cpp - Whole-program joint inference ----------------------===//

#include "infer/GlobalInfer.h"

#include "analysis/IrBuilder.h"
#include "factor/Solvers.h"
#include "pfg/PfgBuilder.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cmath>
#include <stdexcept>

using namespace anek;

namespace {

/// One method's PFG and its variables inside the shared joint graph.
struct MethodModel {
  MethodDecl *Method = nullptr;
  Pfg G;
  std::unique_ptr<PfgVarMap> Vars;
};

/// Builds the Definition 1 joint graph: every method's constraints plus
/// PARAMARG bindings across call sites.
std::vector<MethodModel> buildJointGraph(Program &Prog, FactorGraph &FG,
                                         const InferOptions &Opts,
                                         DiagnosticEngine *Diags,
                                         unsigned *MethodsFailed) {
  std::vector<MethodModel> Models;
  for (MethodDecl *M : Prog.methodsWithBodies()) {
    // Per-method isolation, same contract as the modular algorithm: one
    // body the lowering or constraint generation chokes on is left out
    // of the joint graph instead of killing whole-program inference.
    try {
      if (faults::anyActive() &&
          faults::active(FaultKind::SolveFailure, M->qualifiedName()))
        throw std::runtime_error(
            faults::injectedError(FaultKind::SolveFailure, M->qualifiedName())
                .str());
      MethodModel Model;
      Model.Method = M;
      Model.G = buildPfg(lowerToIr(*M));
      Model.Vars = std::make_unique<PfgVarMap>(Model.G, FG);
      generateConstraints(Model.G, FG, *Model.Vars, Opts.Constraints);
      Models.push_back(std::move(Model));
    } catch (const std::exception &E) {
      if (MethodsFailed)
        ++*MethodsFailed;
      if (Diags)
        Diags->warning(M->Loc, "joint model for '" + M->qualifiedName() +
                                   "' failed (" + E.what() +
                                   "); method left out of the joint graph");
    }
  }

  // Declared-spec priors at interface nodes.
  for (MethodModel &Model : Models) {
    MethodDecl *M = Model.Method;
    if (!M->HasDeclaredSpec)
      continue;
    const MethodSpec &Spec = M->DeclaredSpec;
    const Pfg &G = Model.G;
    auto Seed = [&](PfgNodeId Node, const std::optional<PermState> &PS) {
      if (Node == NoPfgNode || !PS)
        return;
      setSpecPriors(FG, Model.Vars->node(Node), G.statesOf(Node), PS);
    };
    Seed(G.ReceiverPre, Spec.ReceiverPre);
    Seed(G.ReceiverPost, Spec.ReceiverPost);
    for (size_t I = 0; I != G.ParamPre.size(); ++I) {
      if (I < Spec.ParamPre.size())
        Seed(G.ParamPre[I], Spec.ParamPre[I]);
      if (I < Spec.ParamPost.size())
        Seed(G.ParamPost[I], Spec.ParamPost[I]);
    }
    Seed(G.ResultNode, Spec.Result);
  }

  // PARAMARG: equality constraints binding parameters to arguments.
  // Declaration-index keyed like every per-method map: lookup-only today,
  // but pointer order must never become load-bearing by accident.
  MethodDeclMap<const MethodModel *> ByMethod;
  for (const MethodModel &Model : Models)
    ByMethod[Model.Method] = &Model;

  const double BindProb = 0.95;
  for (MethodModel &Model : Models) {
    for (const PfgCallSite &Site : Model.G.CallSites) {
      if (!Site.Callee)
        continue;
      auto It = ByMethod.find(Site.Callee);
      if (It == ByMethod.end()) {
        // Bodiless callee (API): its declared spec seeds the site nodes.
        const MethodSpec &Spec = Site.Callee->DeclaredSpec;
        if (!Site.Callee->HasDeclaredSpec)
          continue;
        auto Seed = [&](PfgNodeId Node,
                        const std::optional<PermState> &PS) {
          if (Node == NoPfgNode || !PS)
            return;
          setSpecPriors(FG, Model.Vars->node(Node), Model.G.statesOf(Node),
                        PS);
        };
        Seed(Site.RecvPre, Spec.ReceiverPre);
        Seed(Site.RecvPost, Spec.ReceiverPost);
        for (size_t I = 0; I != Site.ArgPre.size(); ++I) {
          if (I < Spec.ParamPre.size())
            Seed(Site.ArgPre[I], Spec.ParamPre[I]);
          if (I < Spec.ParamPost.size())
            Seed(Site.ArgPost[I], Spec.ParamPost[I]);
        }
        Seed(Site.Result, Site.Callee->IsCtor ? Spec.ReceiverPost
                                              : Spec.Result);
        continue;
      }

      const MethodModel &Callee = *It->second;
      auto Bind = [&](PfgNodeId SiteNode, PfgNodeId IfaceNode) {
        if (SiteNode == NoPfgNode || IfaceNode == NoPfgNode)
          return;
        const PermVars &A = Model.Vars->node(SiteNode);
        const PermVars &B = Callee.Vars->node(IfaceNode);
        for (unsigned K = 0; K != NumPermKinds; ++K)
          FG.addEqualityFactor(A.Kind[K], B.Kind[K], BindProb);
        size_t States = std::min(A.State.size(), B.State.size());
        for (size_t S = 0; S != States; ++S)
          FG.addEqualityFactor(A.State[S], B.State[S], BindProb);
      };
      Bind(Site.RecvPre, Callee.G.ReceiverPre);
      Bind(Site.RecvPost, Callee.G.ReceiverPost);
      for (size_t I = 0; I != Site.ArgPre.size(); ++I) {
        if (I < Callee.G.ParamPre.size())
          Bind(Site.ArgPre[I], Callee.G.ParamPre[I]);
        if (I < Callee.G.ParamPost.size())
          Bind(Site.ArgPost[I], Callee.G.ParamPost[I]);
      }
      // A constructor's new object is the callee's receiver post; a plain
      // call's result is the callee's result node.
      Bind(Site.Result, Site.IsCtor ? Callee.G.ReceiverPost
                                    : Callee.G.ResultNode);
    }
  }
  return Models;
}

/// Extracts specs for all modeled methods from a joint solution.
MethodDeclMap<MethodSpec>
extractAll(const std::vector<MethodModel> &Models, const Marginals &Solution) {
  MethodDeclMap<MethodSpec> Out;
  for (const MethodModel &Model : Models) {
    MethodDecl *M = Model.Method;
    if (M->HasDeclaredSpec)
      continue;
    const Pfg &G = Model.G;
    MethodSpec Spec;
    Spec.resizeParams(static_cast<unsigned>(M->Params.size()));
    auto Extract = [&](PfgNodeId Node) -> std::optional<PermState> {
      if (Node == NoPfgNode)
        return std::nullopt;
      std::vector<double> P =
          readMarginals(Model.Vars->node(Node), Solution);
      return extractPermState(P, G.statesOf(Node), ExtractionThreshold);
    };
    Spec.ReceiverPre = Extract(G.ReceiverPre);
    Spec.ReceiverPost = Extract(G.ReceiverPost);
    for (size_t I = 0; I != G.ParamPre.size(); ++I) {
      Spec.ParamPre[I] = Extract(G.ParamPre[I]);
      Spec.ParamPost[I] = Extract(G.ParamPost[I]);
    }
    Spec.Result = Extract(G.ResultNode);
    if (!Spec.isEmpty())
      Out.emplace(M, std::move(Spec));
  }
  return Out;
}

} // namespace

GlobalResult anek::runGlobalInfer(Program &Prog, const InferOptions &Opts,
                                  DiagnosticEngine *Diags) {
  telemetry::Span Span("global.infer", "infer");
  GlobalResult Result;
  FactorGraph FG;
  std::vector<MethodModel> Models =
      buildJointGraph(Prog, FG, Opts, Diags, &Result.MethodsFailed);
  Result.TotalVariables = FG.variableCount();
  Result.TotalFactors = FG.factorCount();
  if (Span.active()) {
    Span.arg("vars", Result.TotalVariables);
    Span.arg("factors", Result.TotalFactors);
  }

  // The modular engine's cascade, with twice its 40 BP iterations for
  // the one graph that spans the whole program. It keeps the solver's
  // default tolerance, not the modular NearConvergence: the joint solve
  // thresholds raw marginals, with no evidence deadband in between.
  SumProductSolver::Options BpOpts;
  BpOpts.MaxIterations = 80;
  Timer SolveTimer;
  Marginals Solution = solveCascade(FG, BpOpts, Opts.Bp, Result.Report);
  Result.SolveSeconds = SolveTimer.seconds();

  Result.Inferred = extractAll(Models, Solution);
  return Result;
}

LogicalResult anek::runLogicalInfer(Program &Prog, unsigned VarLimit,
                                    const InferOptions &Opts) {
  LogicalResult Result;
  InferOptions LogicalOpts = Opts;
  LogicalOpts.Constraints = Opts.Constraints.logicalOnly();

  FactorGraph FG;
  std::vector<MethodModel> Models =
      buildJointGraph(Prog, FG, LogicalOpts, nullptr, nullptr);
  Result.TotalVariables = FG.variableCount();
  Result.TotalFactors = FG.factorCount();
  Result.Log2SearchSpace = static_cast<double>(FG.variableCount());

  Timer SolveTimer;
  std::optional<Marginals> Solution =
      ExactSolver().solveLogical(FG, VarLimit);
  Result.SolveSeconds = SolveTimer.seconds();

  if (!Solution) {
    Result.Finished = false;
    if (FG.variableCount() > VarLimit)
      Result.FailureReason = formatStr(
          "search space 2^%u assignments exceeds the enumeration budget "
          "of 2^%u (out of memory before a fixed point)",
          FG.variableCount(), VarLimit);
    else
      Result.FailureReason =
          "constraint system unsatisfiable (conflicting constraints)";
    return Result;
  }

  Result.Finished = true;
  Result.Inferred = extractAll(Models, *Solution);
  return Result;
}
