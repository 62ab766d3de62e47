//===- CallGraph.cpp - Static call graph over a Program --------------------===//

#include "analysis/CallGraph.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace anek;

void CallGraph::addEdge(MethodDecl *Caller, MethodDecl *Callee) {
  assert(Caller && Callee && "null call-graph edge endpoint");
  std::vector<MethodDecl *> &Out = Callees[Caller];
  if (std::find(Out.begin(), Out.end(), Callee) != Out.end())
    return;
  Out.push_back(Callee);
  Callers[Callee].push_back(Caller);
  ++NumEdges;
}

void CallGraph::scanExpr(MethodDecl *Caller, const Expr *E) {
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::Call: {
    const auto *Call = cast<CallExpr>(E);
    scanExpr(Caller, Call->Base.get());
    for (const ExprPtr &Arg : Call->Args)
      scanExpr(Caller, Arg.get());
    if (Call->Callee)
      addEdge(Caller, Call->Callee);
    return;
  }
  case Expr::Kind::New: {
    const auto *New = cast<NewExpr>(E);
    for (const ExprPtr &Arg : New->Args)
      scanExpr(Caller, Arg.get());
    if (New->Ctor)
      addEdge(Caller, New->Ctor);
    return;
  }
  case Expr::Kind::FieldRead:
    scanExpr(Caller, cast<FieldReadExpr>(E)->Base.get());
    return;
  case Expr::Kind::Assign: {
    const auto *Assign = cast<AssignExpr>(E);
    scanExpr(Caller, Assign->Lhs.get());
    scanExpr(Caller, Assign->Rhs.get());
    return;
  }
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    scanExpr(Caller, Bin->Lhs.get());
    scanExpr(Caller, Bin->Rhs.get());
    return;
  }
  case Expr::Kind::Unary:
    scanExpr(Caller, cast<UnaryExpr>(E)->Operand.get());
    return;
  default:
    return;
  }
}

void CallGraph::scanStmt(MethodDecl *Caller, const Stmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Inner : cast<BlockStmt>(S)->Stmts)
      scanStmt(Caller, Inner.get());
    return;
  case Stmt::Kind::VarDecl:
    scanExpr(Caller, cast<VarDeclStmt>(S)->Init.get());
    return;
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    scanExpr(Caller, If->Cond.get());
    scanStmt(Caller, If->Then.get());
    scanStmt(Caller, If->Else.get());
    return;
  }
  case Stmt::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    scanExpr(Caller, While->Cond.get());
    scanStmt(Caller, While->Body.get());
    return;
  }
  case Stmt::Kind::Return:
    scanExpr(Caller, cast<ReturnStmt>(S)->Value.get());
    return;
  case Stmt::Kind::Assert:
    scanExpr(Caller, cast<AssertStmt>(S)->Cond.get());
    return;
  case Stmt::Kind::Synchronized: {
    const auto *Sync = cast<SynchronizedStmt>(S);
    scanExpr(Caller, Sync->Target.get());
    scanStmt(Caller, Sync->Body.get());
    return;
  }
  case Stmt::Kind::ExprStmt:
    scanExpr(Caller, cast<ExprStmt>(S)->E.get());
    return;
  }
}

CallGraph::CallGraph(const Program &Prog) {
  telemetry::Span S("analysis.callgraph", "analysis");
  for (const auto &Type : Prog.Types) {
    for (const auto &Method : Type->Methods) {
      AllMethods.push_back(Method.get());
      if (Method->Body)
        scanStmt(Method.get(), Method->Body.get());
    }
  }
  if (S.active()) {
    S.arg("methods", static_cast<uint64_t>(AllMethods.size()));
    S.arg("edges", static_cast<uint64_t>(NumEdges));
  }
  if (telemetry::metering())
    telemetry::counter("analysis.callgraph.edges").add(NumEdges);
}

const std::vector<MethodDecl *> &
CallGraph::callees(const MethodDecl *Caller) const {
  static const std::vector<MethodDecl *> Empty;
  auto It = Callees.find(Caller);
  return It != Callees.end() ? It->second : Empty;
}

const std::vector<MethodDecl *> &
CallGraph::callers(const MethodDecl *Callee) const {
  static const std::vector<MethodDecl *> Empty;
  auto It = Callers.find(Callee);
  return It != Callers.end() ? It->second : Empty;
}

unsigned
CallGraph::computeSccs(std::map<const MethodDecl *, unsigned> &SccOf) const {
  std::map<const MethodDecl *, unsigned> Index, LowLink;
  std::vector<MethodDecl *> TarjanStack;
  std::map<const MethodDecl *, bool> OnStack;
  unsigned NextIndex = 0, NextScc = 0;

  struct Frame {
    MethodDecl *Method;
    size_t NextChild;
  };
  for (MethodDecl *Root : AllMethods) {
    if (Index.count(Root))
      continue;
    std::vector<Frame> Stack;
    auto Open = [&](MethodDecl *M) {
      Index[M] = LowLink[M] = NextIndex++;
      TarjanStack.push_back(M);
      OnStack[M] = true;
      Stack.push_back({M, 0});
    };
    Open(Root);
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      const std::vector<MethodDecl *> &Children = callees(Top.Method);
      if (Top.NextChild < Children.size()) {
        MethodDecl *Child = Children[Top.NextChild++];
        if (!Index.count(Child))
          Open(Child);
        else if (OnStack[Child])
          LowLink[Top.Method] =
              std::min(LowLink[Top.Method], Index[Child]);
        continue;
      }
      MethodDecl *Done = Top.Method;
      Stack.pop_back();
      if (!Stack.empty())
        LowLink[Stack.back().Method] =
            std::min(LowLink[Stack.back().Method], LowLink[Done]);
      if (LowLink[Done] == Index[Done]) {
        // Pop one component. Tarjan completes an SCC only after every SCC
        // it can reach, so component ids are in reverse topological order
        // (callees' SCCs get smaller ids).
        for (;;) {
          MethodDecl *Member = TarjanStack.back();
          TarjanStack.pop_back();
          OnStack[Member] = false;
          SccOf[Member] = NextScc;
          if (Member == Done)
            break;
        }
        ++NextScc;
      }
    }
  }
  return NextScc;
}

std::vector<std::vector<MethodDecl *>> CallGraph::sccWaves() const {
  telemetry::Span Span("analysis.sccwaves", "analysis");
  std::map<const MethodDecl *, unsigned> SccOf;
  const unsigned NextScc = computeSccs(SccOf);

  // Wave level per SCC: one past the deepest *bodied* callee component.
  // Components without bodies are never solved, so they do not push
  // their callers into later waves.
  std::vector<unsigned> Level(NextScc, 0);
  std::vector<bool> HasBody(NextScc, false);
  std::vector<std::vector<MethodDecl *>> Members(NextScc);
  for (MethodDecl *M : AllMethods) {
    if (M->Body)
      HasBody[SccOf[M]] = true;
    Members[SccOf[M]].push_back(M);
  }
  // Ascending component id = reverse topological order, so every callee
  // component's level is final before a caller component reads it.
  for (unsigned S = 0; S != NextScc; ++S)
    for (MethodDecl *M : Members[S])
      for (MethodDecl *Callee : callees(M)) {
        unsigned CS = SccOf[Callee];
        if (CS == S || !HasBody[CS])
          continue;
        assert(CS < S && "condensation edge out of reverse-topo id order");
        Level[S] = std::max(Level[S], Level[CS] + 1);
      }

  std::vector<std::vector<MethodDecl *>> Waves;
  for (MethodDecl *M : AllMethods) {
    if (!M->Body)
      continue;
    unsigned W = Level[SccOf[M]];
    if (W >= Waves.size())
      Waves.resize(W + 1);
    Waves[W].push_back(M); // AllMethods order == declaration order.
  }
  // Levels are computed over bodied components only, so no wave between
  // 0 and the deepest one can be empty; keep the invariant checked.
  for (const auto &Wave : Waves)
    assert(!Wave.empty() && "empty wave in SCC condensation");
  return Waves;
}

std::vector<CallGraph::SccGroup> CallGraph::sccGroups() const {
  std::map<const MethodDecl *, unsigned> SccOf;
  const unsigned NextScc = computeSccs(SccOf);

  std::vector<SccGroup> Groups(NextScc);
  for (MethodDecl *M : AllMethods) {
    unsigned S = SccOf[M];
    Groups[S].Members.push_back(M); // AllMethods order == declaration order.
    for (MethodDecl *Callee : callees(M)) {
      unsigned CS = SccOf[Callee];
      if (CS == S)
        continue;
      assert(CS < S && "condensation edge out of reverse-topo id order");
      std::vector<unsigned> &Out = Groups[S].CalleeGroups;
      if (std::find(Out.begin(), Out.end(), CS) == Out.end())
        Out.push_back(CS);
    }
  }
  for (SccGroup &G : Groups)
    std::sort(G.CalleeGroups.begin(), G.CalleeGroups.end());
  return Groups;
}
