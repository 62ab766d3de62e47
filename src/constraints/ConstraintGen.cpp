//===- ConstraintGen.cpp - Logical and heuristic constraints ---------------===//

#include "constraints/ConstraintGen.h"

#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <cassert>

using namespace anek;

namespace {

// Logical constraint strengths (the h parameters of Section 3.3).
constexpr double L1Branch = 0.95;   ///< h1: node = each branch edge.
constexpr double L1Split = 0.95;    ///< h2: sound splitting.
constexpr double L2Incoming = 0.95; ///< h3: node = one incoming edge.
constexpr double L3FieldWrite = 0.95;

// Heuristic strengths ("elevated probability").
constexpr double H1Ctor = 0.85;
constexpr double H2PrePost = 0.75;
constexpr double H3Create = 0.85;
constexpr double H4Setter = 0.8;
constexpr double H5Sync = 0.75;
/// H6 is the dual of the paper's "unique is the best returned
/// permission" discussion: *required* permissions should be as weak as
/// possible, so unique is unlikely at a method's own pre nodes unless
/// the body forces it.
constexpr double H6WeakPre = 0.4;

/// Strength of the optional at-most-one-kind factor
/// (ConstraintOptions::KindMutex).
constexpr double KindMutexProb = 0.9;

/// Generation context shared by the per-rule helpers.
struct GenContext {
  const Pfg &P;
  FactorGraph &G;
  const PfgVarMap &Vars;
  const ConstraintOptions &Opts;
  ConstraintStats Stats;

  /// Per-kind and per-state soft equality between two variable sets.
  void equalize(const PermVars &A, const PermVars &B, double H,
                bool KindsOnly = false) {
    for (unsigned K = 0; K != NumPermKinds; ++K)
      G.addEqualityFactor(A.Kind[K], B.Kind[K], H);
    if (KindsOnly)
      return;
    size_t States = std::min(A.State.size(), B.State.size());
    for (size_t S = 0; S != States; ++S)
      G.addEqualityFactor(A.State[S], B.State[S], H);
  }

  /// Unary factor nudging a variable toward \p TrueProb.
  void nudge(VarId Var, double TrueProb) {
    G.addFactor({Var}, {1.0 - TrueProb, TrueProb});
    ++Stats.HeuristicFactors;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// L1: outgoing permissions
//===----------------------------------------------------------------------===//

/// Split-edge kind coupling. The sound-splitting order of the paper's
/// Eq. 2 is enforced softly as per-kind equality between the node and the
/// edge: equality factors are bias-free under belief propagation, the
/// mismatch probability absorbs legal downgrades, and the sibling
/// exclusivity factor below rules out duplicated exclusive permissions.
/// (Call-pre priors are applied in "at least this kind" form, see
/// AnekInfer, so a weak requirement never suppresses a stronger permission
/// flowing through the split.)
static void addSplitDowngrade(GenContext &Ctx, const PermVars &Node,
                              const PermVars &Edge) {
  for (unsigned K = 0; K != NumPermKinds; ++K) {
    Ctx.G.addEqualityFactor(Node.Kind[K], Edge.Kind[K], L1Split);
    ++Ctx.Stats.SplitFactors;
  }
}

/// Sibling exclusivity (last conjunct of Eq. 2): at most one outgoing
/// split edge may carry an exclusive (unique or full) permission.
static void addSplitExclusivity(GenContext &Ctx, const PermVars &E1,
                                const PermVars &E2) {
  unsigned U = static_cast<unsigned>(PermKind::Unique);
  unsigned F = static_cast<unsigned>(PermKind::Full);
  Ctx.G.addPredicateFactor(
      {E1.Kind[U], E1.Kind[F], E2.Kind[U], E2.Kind[F]},
      [](const std::vector<bool> &A) {
        bool FirstExclusive = A[0] || A[1];
        bool SecondExclusive = A[2] || A[3];
        return !(FirstExclusive && SecondExclusive);
      },
      L1Split);
  ++Ctx.Stats.ExclusivityFactors;
}

static void generateOutgoing(GenContext &Ctx, PfgNodeId N) {
  const std::vector<PfgEdgeId> &Out = Ctx.P.outEdges(N);
  if (Out.empty())
    return;
  const PermVars &NodeVars = Ctx.Vars.node(N);
  bool IsSplit = Ctx.P.node(N).Kind == PfgNodeKind::Split;

  if (!IsSplit) {
    // Branch or straight-line flow: permission unchanged on every edge.
    for (PfgEdgeId E : Out) {
      Ctx.equalize(NodeVars, Ctx.Vars.edge(E), L1Branch,
                   /*KindsOnly=*/Ctx.P.edge(E).StateOpaque);
      ++Ctx.Stats.BranchEquality;
    }
    return;
  }

  for (PfgEdgeId E : Out) {
    addSplitDowngrade(Ctx, NodeVars, Ctx.Vars.edge(E));
    if (Ctx.P.edge(E).StateOpaque)
      continue; // The callee may transition the state (see PfgBuilder).
    // States survive splitting unchanged (Eq. 2, final line).
    const PermVars &EdgeVars = Ctx.Vars.edge(E);
    size_t States = std::min(NodeVars.State.size(), EdgeVars.State.size());
    for (size_t S = 0; S != States; ++S)
      Ctx.G.addEqualityFactor(NodeVars.State[S], EdgeVars.State[S], L1Split);
  }
  if (Ctx.Opts.EnableExclusivity)
    for (size_t I = 0; I != Out.size(); ++I)
      for (size_t J = I + 1; J != Out.size(); ++J)
        addSplitExclusivity(Ctx, Ctx.Vars.edge(Out[I]),
                            Ctx.Vars.edge(Out[J]));
}

//===----------------------------------------------------------------------===//
// L2: incoming permissions
//===----------------------------------------------------------------------===//

static void generateIncoming(GenContext &Ctx, PfgNodeId N) {
  const std::vector<PfgEdgeId> &In = Ctx.P.inEdges(N);
  if (In.empty())
    return;
  const PermVars &NodeVars = Ctx.Vars.node(N);
  bool IsMerge = Ctx.P.node(N).Kind == PfgNodeKind::Merge;

  if (In.size() == 1) {
    Ctx.equalize(NodeVars, Ctx.Vars.edge(In[0]), L2Incoming,
                 /*KindsOnly=*/Ctx.P.edge(In[0]).StateOpaque);
    ++Ctx.Stats.IncomingFactors;
    return;
  }

  // Multiple incoming edges: the node's permission equals one of the
  // incoming edges'. Soft pairwise equalities encode this without the
  // marginal bias a disjunction factor exerts under loopy BP.
  //
  // At merge nodes the division of labour is sharp: permission *kinds*
  // travel around the call on the retained (state-opaque) edge — a
  // borrow that round-trips restores the original permission (paper
  // Section 2), so the callee's post-condition kind says nothing about
  // what the caller holds afterwards — while abstract *states* return
  // exclusively through the callee's post edge, because the callee may
  // have transitioned the object.
  for (PfgEdgeId E : In) {
    const PermVars &EdgeVars = Ctx.Vars.edge(E);
    bool IsRetained = Ctx.P.edge(E).StateOpaque;
    if (!IsMerge || IsRetained) {
      double KindStrength = IsMerge ? L2Incoming : 0.8;
      for (unsigned K = 0; K != NumPermKinds; ++K)
        Ctx.G.addEqualityFactor(NodeVars.Kind[K], EdgeVars.Kind[K],
                                KindStrength);
    }
    if (!IsRetained) {
      double StateStrength = IsMerge ? L2Incoming : 0.8;
      size_t States = std::min(NodeVars.State.size(),
                               EdgeVars.State.size());
      for (size_t S = 0; S != States; ++S)
        Ctx.G.addEqualityFactor(NodeVars.State[S], EdgeVars.State[S],
                                StateStrength);
    }
    ++Ctx.Stats.IncomingFactors;
  }
}

//===----------------------------------------------------------------------===//
// L3: field writes
//===----------------------------------------------------------------------===//

static void generateFieldWrite(GenContext &Ctx, PfgNodeId N) {
  const PfgNode &Node = Ctx.P.node(N);
  if (Node.Kind != PfgNodeKind::FieldWrite ||
      Node.ReceiverNode == NoPfgNode)
    return;
  const PermVars &Recv = Ctx.Vars.node(Node.ReceiverNode);
  unsigned U = static_cast<unsigned>(PermKind::Unique);
  unsigned F = static_cast<unsigned>(PermKind::Full);
  unsigned S = static_cast<unsigned>(PermKind::Share);
  unsigned Imm = static_cast<unsigned>(PermKind::Immutable);
  unsigned Pure = static_cast<unsigned>(PermKind::Pure);
  Ctx.G.addPredicateFactor(
      {Recv.Kind[Imm], Recv.Kind[Pure]},
      [](const std::vector<bool> &A) { return !A[0] && !A[1]; },
      L3FieldWrite);
  // "A field cannot be modified without writing permission to its
  // receiver": positively, some writing kind is present.
  Ctx.G.addPredicateFactor(
      {Recv.Kind[U], Recv.Kind[F], Recv.Kind[S]},
      [](const std::vector<bool> &A) { return A[0] || A[1] || A[2]; },
      L3FieldWrite);
  Ctx.Stats.FieldWriteFactors += 2;
}

//===----------------------------------------------------------------------===//
// Heuristics H1-H5
//===----------------------------------------------------------------------===//

static void generateHeuristics(GenContext &Ctx) {
  const ConstraintOptions &Opts = Ctx.Opts;
  const Pfg &P = Ctx.P;
  unsigned U = static_cast<unsigned>(PermKind::Unique);
  unsigned Imm = static_cast<unsigned>(PermKind::Immutable);
  unsigned Pure = static_cast<unsigned>(PermKind::Pure);

  // H1: constructors return unique.
  if (Opts.EnableH1)
    for (PfgNodeId N = 0; N != P.nodeCount(); ++N)
      if (P.node(N).Kind == PfgNodeKind::NewObject)
        Ctx.nudge(Ctx.Vars.node(N).Kind[U], H1Ctor);

  // H2: a parameter keeps its permission kind across the method (pre and
  // post kinds agree; states may change).
  if (Opts.EnableH2) {
    auto Tie = [&](PfgNodeId Pre, PfgNodeId Post) {
      if (Pre == NoPfgNode || Post == NoPfgNode)
        return;
      Ctx.equalize(Ctx.Vars.node(Pre), Ctx.Vars.node(Post), H2PrePost,
                   /*KindsOnly=*/true);
      Ctx.Stats.HeuristicFactors += NumPermKinds;
    };
    Tie(P.ReceiverPre, P.ReceiverPost);
    for (size_t I = 0; I != P.ParamPre.size(); ++I)
      Tie(P.ParamPre[I], P.ParamPost[I]);
  }

  // H3: create* factory methods return unique.
  if (Opts.EnableH3) {
    if (P.Method && startsWith(P.Method->Name, "create") &&
        P.ResultNode != NoPfgNode)
      Ctx.nudge(Ctx.Vars.node(P.ResultNode).Kind[U], H3Create);
    for (PfgNodeId N = 0; N != P.nodeCount(); ++N) {
      const PfgNode &Node = P.node(N);
      if (Node.Kind == PfgNodeKind::CallResult && Node.Callee &&
          startsWith(Node.Callee->Name, "create"))
        Ctx.nudge(Ctx.Vars.node(N).Kind[U], H3Create);
    }
  }

  // H4: set* methods take a writing permission to their receiver, so
  // immutable/pure are unlikely on the receiver pre and post. The
  // idiomatic writing kind for a setter spec is full (exclusive write,
  // shared reads), so it gets the elevated probability.
  if (Opts.EnableH4) {
    unsigned FullK = static_cast<unsigned>(PermKind::Full);
    auto Damp = [&](PfgNodeId N) {
      if (N == NoPfgNode)
        return;
      Ctx.nudge(Ctx.Vars.node(N).Kind[Imm], 1.0 - H4Setter);
      Ctx.nudge(Ctx.Vars.node(N).Kind[Pure], 1.0 - H4Setter);
      Ctx.nudge(Ctx.Vars.node(N).Kind[FullK], H4Setter);
    };
    if (P.Method && startsWith(P.Method->Name, "set")) {
      Damp(P.ReceiverPre);
      Damp(P.ReceiverPost);
    }
    for (PfgNodeId N = 0; N != P.nodeCount(); ++N) {
      const PfgNode &Node = P.node(N);
      bool IsRecvCallNode = (Node.Kind == PfgNodeKind::CallPre ||
                             Node.Kind == PfgNodeKind::CallPost) &&
                            Node.Target.Kind == SpecTargetKind::Receiver;
      if (IsRecvCallNode && Node.Callee &&
          startsWith(Node.Callee->Name, "set"))
        Damp(N);
    }
  }

  // H6: required permissions are as weak as possible — unique is
  // unlikely at a method's own precondition nodes unless forced.
  if (Opts.EnableH6) {
    auto Weaken = [&](PfgNodeId N) {
      if (N != NoPfgNode)
        Ctx.nudge(Ctx.Vars.node(N).Kind[U], H6WeakPre);
    };
    Weaken(P.ReceiverPre);
    for (PfgNodeId N : P.ParamPre)
      Weaken(N);
  }

  // H5: synchronized targets are thread-shared: full, share or pure.
  if (Opts.EnableH5) {
    unsigned F = static_cast<unsigned>(PermKind::Full);
    unsigned S = static_cast<unsigned>(PermKind::Share);
    for (PfgNodeId N : P.SyncTargets) {
      const PermVars &Vars = Ctx.Vars.node(N);
      Ctx.G.addPredicateFactor(
          {Vars.Kind[F], Vars.Kind[S], Vars.Kind[Pure]},
          [](const std::vector<bool> &A) { return A[0] || A[1] || A[2]; },
          H5Sync);
      ++Ctx.Stats.HeuristicFactors;
    }
  }
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

ConstraintStats anek::generateConstraints(const Pfg &P, FactorGraph &G,
                                          const PfgVarMap &Vars,
                                          const ConstraintOptions &Opts) {
  telemetry::Span Span("constraints.generate", "constraints");
  GenContext Ctx{P, G, Vars, Opts, {}};

  for (PfgNodeId N = 0; N != P.nodeCount(); ++N) {
    generateOutgoing(Ctx, N);
    generateIncoming(Ctx, N);
    generateFieldWrite(Ctx, N);
  }

  if (!Opts.LogicalOnly)
    generateHeuristics(Ctx);

  if (Opts.KindMutex) {
    for (PfgNodeId N = 0; N != P.nodeCount(); ++N) {
      const PermVars &NodeVars = Vars.node(N);
      std::vector<VarId> Scope(NodeVars.Kind.begin(), NodeVars.Kind.end());
      G.addPredicateFactor(
          Scope,
          [](const std::vector<bool> &A) {
            unsigned Count = 0;
            for (bool B : A)
              Count += B;
            return Count <= 1;
          },
          KindMutexProb);
      ++Ctx.Stats.HeuristicFactors;
    }
  }

  if (Span.active()) {
    Span.arg("vars", G.variableCount());
    Span.arg("factors", G.factorCount());
    Span.arg("heuristic_factors", Ctx.Stats.HeuristicFactors);
  }
  if (telemetry::metering()) {
    telemetry::counter("constraints.runs").add(1);
    telemetry::counter("constraints.variables").add(G.variableCount());
    telemetry::counter("constraints.factors").add(G.factorCount());
    telemetry::counter("constraints.heuristic_factors")
        .add(Ctx.Stats.HeuristicFactors);
  }
  return Ctx.Stats;
}
