//===- PfgBuilder.cpp - Build PFGs from the action IR ----------------------===//

#include "pfg/PfgBuilder.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <map>

using namespace anek;

namespace {

/// Map from local slots to the PFG node currently holding their
/// permission. Only object-typed locals appear.
using NodeMap = std::map<LocalId, PfgNodeId>;

/// Builder state for one method.
class Builder {
public:
  explicit Builder(const MethodIr &Ir) : Ir(Ir) { G.Method = Ir.Method; }

  Pfg run();

private:
  PfgNodeId makeNode(PfgNodeKind Kind, TypeDecl *Class, SourceLocation Loc) {
    PfgNode N;
    N.Kind = Kind;
    N.Class = Class;
    N.Loc = Loc;
    return G.addNode(std::move(N));
  }

  /// Current node for \p Local, creating an Unknown source on demand for
  /// object-typed locals the analysis has not seen a definition for.
  PfgNodeId currentNode(NodeMap &Map, LocalId Local, SourceLocation Loc);

  /// True when \p Local holds an object reference worth tracking.
  bool isTracked(LocalId Local) const {
    return Local != NoLocal && Ir.Locals[Local].Class != nullptr;
  }

  void handleCall(NodeMap &Map, const Action &A);
  void handleAction(NodeMap &Map, const Action &A);

  /// Reverse post-order over reachable blocks.
  std::vector<uint32_t> computeRpo() const;

  const MethodIr &Ir;
  Pfg G;
  /// Pending loop-head joins: block -> (local -> join node).
  std::map<uint32_t, NodeMap> LoopJoins;
  /// Exit node-maps per processed block.
  std::map<uint32_t, NodeMap> ExitMaps;
};

} // namespace

PfgNodeId Builder::currentNode(NodeMap &Map, LocalId Local,
                               SourceLocation Loc) {
  assert(isTracked(Local) && "requesting node for untracked local");
  auto It = Map.find(Local);
  if (It != Map.end())
    return It->second;
  PfgNodeId N = makeNode(PfgNodeKind::Unknown, Ir.Locals[Local].Class, Loc);
  Map[Local] = N;
  return N;
}

void Builder::handleCall(NodeMap &Map, const Action &A) {
  PfgCallSite Site;
  Site.Callee = A.Callee;
  Site.IsCtor = A.Kind == ActionKind::Alloc;
  Site.Loc = A.Loc;
  uint32_t SiteId = static_cast<uint32_t>(G.CallSites.size());

  // One argument's flow through the call: cur -> split -> callee-pre,
  // split -> merge, callee-post -> merge; the local continues at the
  // merge (paper Figure 6).
  auto FlowThrough = [&](LocalId Local, SpecTarget Target,
                         TypeDecl *IfaceClass, PfgNodeId &PreOut,
                         PfgNodeId &PostOut) {
    PfgNodeId Cur = currentNode(Map, Local, A.Loc);
    TypeDecl *Class = IfaceClass ? IfaceClass : Ir.Locals[Local].Class;

    PfgNodeId Split = makeNode(PfgNodeKind::Split, Class, A.Loc);
    PfgNodeId Pre = makeNode(PfgNodeKind::CallPre, Class, A.Loc);
    PfgNodeId Post = makeNode(PfgNodeKind::CallPost, Class, A.Loc);
    PfgNodeId Merge = makeNode(PfgNodeKind::Merge, Class, A.Loc);
    G.node(Pre).Target = Target;
    G.node(Pre).Callee = A.Callee;
    G.node(Pre).CallSite = SiteId;
    G.node(Post).Target = Target;
    G.node(Post).Callee = A.Callee;
    G.node(Post).CallSite = SiteId;

    G.addEdge(Cur, Split);
    G.addEdge(Split, Pre);
    // The retained edge is state-opaque: the callee may transition the
    // object, so the merged state comes back via the post edge only.
    G.addEdge(Split, Merge, /*StateOpaque=*/true);
    G.addEdge(Post, Merge);
    Map[Local] = Merge;
    PreOut = Pre;
    PostOut = Post;
  };

  // Receiver.
  if (A.Kind == ActionKind::Call && A.Recv != NoLocal && isTracked(A.Recv)) {
    TypeDecl *RecvClass = A.Callee ? A.Callee->Owner : nullptr;
    FlowThrough(A.Recv, SpecTarget::receiver(), RecvClass, Site.RecvPre,
                Site.RecvPost);
  }

  // Object-typed arguments.
  Site.ArgPre.assign(A.Args.size(), NoPfgNode);
  Site.ArgPost.assign(A.Args.size(), NoPfgNode);
  for (unsigned I = 0, E = static_cast<unsigned>(A.Args.size()); I != E;
       ++I) {
    LocalId Arg = A.Args[I];
    if (!isTracked(Arg))
      continue;
    TypeDecl *ParamClass = nullptr;
    if (A.Callee && I < A.Callee->Params.size() &&
        A.Callee->Params[I].Type.isClass())
      ParamClass = A.Callee->Params[I].Type.Decl;
    FlowThrough(Arg, SpecTarget::param(I), ParamClass, Site.ArgPre[I],
                Site.ArgPost[I]);
  }

  // Result.
  if (A.Kind == ActionKind::Alloc) {
    PfgNodeId NewNode = makeNode(PfgNodeKind::NewObject, A.AllocClass, A.Loc);
    G.node(NewNode).Callee = A.Callee;
    G.node(NewNode).CallSite = SiteId;
    Site.Result = NewNode;
    if (A.Dst != NoLocal)
      Map[A.Dst] = NewNode;
  } else if (A.Dst != NoLocal && isTracked(A.Dst)) {
    TypeDecl *RetClass = Ir.Locals[A.Dst].Class;
    if (A.Callee && A.Callee->ReturnType.isClass() &&
        A.Callee->ReturnType.Decl)
      RetClass = A.Callee->ReturnType.Decl;
    PfgNodeId Res = makeNode(PfgNodeKind::CallResult, RetClass, A.Loc);
    G.node(Res).Callee = A.Callee;
    G.node(Res).CallSite = SiteId;
    Site.Result = Res;
    Map[A.Dst] = Res;
  }

  G.CallSites.push_back(std::move(Site));
}

void Builder::handleAction(NodeMap &Map, const Action &A) {
  switch (A.Kind) {
  case ActionKind::Alloc:
  case ActionKind::Call:
    handleCall(Map, A);
    return;
  case ActionKind::Copy:
    if (isTracked(A.Dst) && isTracked(A.Src))
      Map[A.Dst] = currentNode(Map, A.Src, A.Loc);
    return;
  case ActionKind::FieldLoad: {
    if (!isTracked(A.Dst))
      return;
    PfgNodeId Read =
        makeNode(PfgNodeKind::FieldRead, Ir.Locals[A.Dst].Class, A.Loc);
    G.node(Read).FieldName = A.FieldName;
    if (isTracked(A.Recv))
      G.node(Read).ReceiverNode = currentNode(Map, A.Recv, A.Loc);
    Map[A.Dst] = Read;
    return;
  }
  case ActionKind::FieldStore: {
    if (!isTracked(A.Src)) {
      // Primitive store: still note the write for L3 via a receiver-less
      // sink only when the receiver is tracked.
      if (isTracked(A.Recv)) {
        PfgNodeId Write = makeNode(PfgNodeKind::FieldWrite, nullptr, A.Loc);
        G.node(Write).FieldName = A.FieldName;
        G.node(Write).ReceiverNode = currentNode(Map, A.Recv, A.Loc);
      }
      return;
    }
    // Some permission is retained by the assigning context (paper
    // Section 3.1): cur -> split -> {fieldwrite, retained}.
    PfgNodeId Cur = currentNode(Map, A.Src, A.Loc);
    TypeDecl *Class = Ir.Locals[A.Src].Class;
    PfgNodeId Split = makeNode(PfgNodeKind::Split, Class, A.Loc);
    PfgNodeId Write = makeNode(PfgNodeKind::FieldWrite, Class, A.Loc);
    PfgNodeId Retained = makeNode(PfgNodeKind::Merge, Class, A.Loc);
    G.node(Write).FieldName = A.FieldName;
    if (isTracked(A.Recv))
      G.node(Write).ReceiverNode = currentNode(Map, A.Recv, A.Loc);
    G.addEdge(Cur, Split);
    G.addEdge(Split, Write);
    G.addEdge(Split, Retained);
    Map[A.Src] = Retained;
    return;
  }
  case ActionKind::Return:
    if (A.Src != NoLocal && isTracked(A.Src) && G.ResultNode != NoPfgNode)
      G.addEdge(currentNode(Map, A.Src, A.Loc), G.ResultNode);
    return;
  case ActionKind::EnterSync:
    if (isTracked(A.Recv))
      G.SyncTargets.push_back(currentNode(Map, A.Recv, A.Loc));
    return;
  case ActionKind::ExitSync:
  case ActionKind::OpaqueUse:
    return;
  }
}

std::vector<uint32_t> Builder::computeRpo() const {
  std::vector<uint32_t> PostOrder;
  std::vector<uint8_t> Visited(Ir.Blocks.size(), 0);
  // Iterative DFS.
  std::vector<std::pair<uint32_t, size_t>> Stack;
  Stack.push_back({MethodIr::EntryBlock, 0});
  Visited[MethodIr::EntryBlock] = 1;
  while (!Stack.empty()) {
    auto &[Block, NextSucc] = Stack.back();
    const std::vector<uint32_t> &Succs = Ir.Blocks[Block].Term.Succs;
    if (NextSucc < Succs.size()) {
      uint32_t Succ = Succs[NextSucc++];
      if (!Visited[Succ]) {
        Visited[Succ] = 1;
        Stack.push_back({Succ, 0});
      }
      continue;
    }
    PostOrder.push_back(Block);
    Stack.pop_back();
  }
  return {PostOrder.rbegin(), PostOrder.rend()};
}

Pfg Builder::run() {
  MethodDecl *Method = Ir.Method;

  // Interface nodes.
  if (Ir.ReceiverLocal != NoLocal && isTracked(Ir.ReceiverLocal)) {
    G.ReceiverPre = makeNode(PfgNodeKind::ParamPre, Method->Owner,
                             Method->Loc);
    G.node(G.ReceiverPre).Target = SpecTarget::receiver();
    G.ReceiverPost = makeNode(PfgNodeKind::ParamPost, Method->Owner,
                              Method->Loc);
    G.node(G.ReceiverPost).Target = SpecTarget::receiver();
  }
  G.ParamPre.assign(Ir.ParamLocals.size(), NoPfgNode);
  G.ParamPost.assign(Ir.ParamLocals.size(), NoPfgNode);
  for (unsigned I = 0, E = static_cast<unsigned>(Ir.ParamLocals.size());
       I != E; ++I) {
    LocalId Local = Ir.ParamLocals[I];
    if (!isTracked(Local))
      continue;
    G.ParamPre[I] =
        makeNode(PfgNodeKind::ParamPre, Ir.Locals[Local].Class, Method->Loc);
    G.node(G.ParamPre[I]).Target = SpecTarget::param(I);
    G.ParamPost[I] =
        makeNode(PfgNodeKind::ParamPost, Ir.Locals[Local].Class, Method->Loc);
    G.node(G.ParamPost[I]).Target = SpecTarget::param(I);
  }
  if (Method->ReturnType.isClass() && Method->ReturnType.Decl &&
      !Method->IsCtor)
    G.ResultNode =
        makeNode(PfgNodeKind::Result, Method->ReturnType.Decl, Method->Loc);

  std::vector<uint32_t> Rpo = computeRpo();
  std::vector<uint32_t> RpoIndex(Ir.Blocks.size(),
                                 static_cast<uint32_t>(Ir.Blocks.size()));
  for (uint32_t I = 0; I != Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = I;

  std::vector<std::vector<uint32_t>> Preds = Ir.predecessors();

  // A block is a loop head if some reachable predecessor comes later in
  // RPO (a back edge).
  auto IsBackEdge = [&](uint32_t From, uint32_t To) {
    return RpoIndex[From] >= RpoIndex[To];
  };

  for (uint32_t Block : Rpo) {
    NodeMap Entry;
    bool IsLoopHead = false;
    std::vector<uint32_t> ForwardPreds;
    for (uint32_t Pred : Preds[Block]) {
      if (RpoIndex[Pred] == Ir.Blocks.size())
        continue; // Unreachable predecessor.
      if (IsBackEdge(Pred, Block))
        IsLoopHead = true;
      else
        ForwardPreds.push_back(Pred);
    }

    if (Block == MethodIr::EntryBlock) {
      if (G.ReceiverPre != NoPfgNode)
        Entry[Ir.ReceiverLocal] = G.ReceiverPre;
      for (unsigned I = 0; I != Ir.ParamLocals.size(); ++I)
        if (G.ParamPre[I] != NoPfgNode)
          Entry[Ir.ParamLocals[I]] = G.ParamPre[I];
    } else if (ForwardPreds.size() == 1 && !IsLoopHead) {
      Entry = ExitMaps[ForwardPreds[0]];
    } else if (!ForwardPreds.empty()) {
      // Merge forward predecessors: keep locals present in all of them.
      Entry = ExitMaps[ForwardPreds[0]];
      for (size_t P = 1; P < ForwardPreds.size(); ++P) {
        const NodeMap &Other = ExitMaps[ForwardPreds[P]];
        for (auto It = Entry.begin(); It != Entry.end();) {
          auto Found = Other.find(It->first);
          if (Found == Other.end()) {
            It = Entry.erase(It);
            continue;
          }
          if (Found->second != It->second) {
            // Differing nodes: join them.
            PfgNodeId Join = makeNode(PfgNodeKind::Join,
                                      Ir.Locals[It->first].Class,
                                      SourceLocation());
            G.addEdge(It->second, Join);
            G.addEdge(Found->second, Join);
            It->second = Join;
          }
          ++It;
        }
      }
    }

    if (IsLoopHead) {
      // Every tracked local entering the loop gets a join node so the
      // back edge can feed permission around the loop (Figure 6).
      NodeMap Joins;
      for (auto &[Local, Node] : Entry) {
        PfgNodeId Join =
            makeNode(PfgNodeKind::Join, Ir.Locals[Local].Class,
                     SourceLocation());
        G.addEdge(Node, Join);
        Joins[Local] = Join;
        Node = Join;
      }
      LoopJoins[Block] = Joins;
    }

    // Walk the block.
    NodeMap Map = Entry;
    for (const Action &A : Ir.Blocks[Block].Actions)
      handleAction(Map, A);

    // At method exits, parameters flow to their POST nodes.
    if (Ir.Blocks[Block].Term.Kind == TermKind::Exit) {
      if (G.ReceiverPost != NoPfgNode && Map.count(Ir.ReceiverLocal))
        G.addEdge(Map[Ir.ReceiverLocal], G.ReceiverPost);
      for (unsigned I = 0; I != Ir.ParamLocals.size(); ++I)
        if (G.ParamPost[I] != NoPfgNode && Map.count(Ir.ParamLocals[I]))
          G.addEdge(Map[Ir.ParamLocals[I]], G.ParamPost[I]);
    }

    ExitMaps[Block] = std::move(Map);
  }

  // Wire back edges into the loop-head joins.
  for (auto &[Head, Joins] : LoopJoins) {
    for (uint32_t Pred : Preds[Head]) {
      if (RpoIndex[Pred] == Ir.Blocks.size() || !IsBackEdge(Pred, Head))
        continue;
      auto ExitIt = ExitMaps.find(Pred);
      if (ExitIt == ExitMaps.end())
        continue;
      for (auto &[Local, Join] : Joins) {
        auto Found = ExitIt->second.find(Local);
        // Skip self-edges: the permission was not touched in the loop.
        if (Found != ExitIt->second.end() && Found->second != Join)
          G.addEdge(Found->second, Join);
      }
    }
  }

  return std::move(G);
}

Pfg anek::buildPfg(const MethodIr &Ir) {
  assert(Ir.Method && "IR without method");
  telemetry::Span S("pfg.build", "pfg");
  Builder B(Ir);
  Pfg G = B.run();
  if (S.active()) {
    S.arg("method", Ir.Method->qualifiedName());
    S.arg("nodes", G.nodeCount());
    S.arg("edges", G.edgeCount());
    S.arg("call_sites", static_cast<uint64_t>(G.CallSites.size()));
  }
  if (telemetry::metering()) {
    telemetry::counter("pfg.builds").add(1);
    telemetry::counter("pfg.nodes").add(G.nodeCount());
    telemetry::counter("pfg.edges").add(G.edgeCount());
    telemetry::counter("pfg.call_sites").add(G.CallSites.size());
    telemetry::histogram("pfg.nodes_per_method")
        .record(static_cast<double>(G.nodeCount()));
  }
  return G;
}
