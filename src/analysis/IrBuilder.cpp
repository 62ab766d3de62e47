//===- IrBuilder.cpp - Lower MiniJava ASTs to the action IR ----------------===//

#include "analysis/IrBuilder.h"

#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <unordered_map>

using namespace anek;

namespace {

/// Stateful lowering of a single method body.
class IrLowering {
public:
  explicit IrLowering(MethodDecl &Method) : Method(Method) {
    Ir.Method = &Method;
  }

  MethodIr run();

private:
  // Block plumbing.
  uint32_t newBlock() {
    Ir.Blocks.emplace_back();
    return static_cast<uint32_t>(Ir.Blocks.size() - 1);
  }
  BasicBlock &block(uint32_t Id) { return Ir.Blocks[Id]; }
  void setGoto(uint32_t From, uint32_t To) {
    block(From).Term.Kind = TermKind::Goto;
    block(From).Term.Succs = {To};
  }
  Action &emit(ActionKind Kind, SourceLocation Loc) {
    Action A;
    A.Kind = Kind;
    A.Loc = Loc;
    block(Cur).Actions.push_back(std::move(A));
    return block(Cur).Actions.back();
  }

  // Local slots.
  LocalId newLocal(LocalKind Kind, std::string Name, TypeDecl *Class) {
    LocalSlot Slot;
    Slot.Kind = Kind;
    Slot.Name = std::move(Name);
    Slot.Class = Class;
    Ir.Locals.push_back(std::move(Slot));
    return static_cast<LocalId>(Ir.Locals.size() - 1);
  }
  LocalId newTemp(TypeDecl *Class) {
    return newLocal(LocalKind::Temp,
                    formatStr("%%t%u", unsigned(Ir.Locals.size())), Class);
  }

  // Lowering.
  void lowerStmt(Stmt *S);
  /// Lowers an expression for its value; returns the local holding it.
  LocalId lowerExpr(Expr *E);
  /// Lowers an assignment's effect.
  void lowerAssign(AssignExpr *Assign);
  /// Recognizes `x.test()` / `!x.test()` conditions on state-test methods.
  std::optional<StateTestInfo> recognizeStateTest(Expr *Cond);

  MethodDecl &Method;
  MethodIr Ir;
  uint32_t Cur = 0;
  std::unordered_map<const VarDeclStmt *, LocalId> LocalSlots;
};

} // namespace

std::vector<std::vector<uint32_t>> MethodIr::predecessors() const {
  std::vector<std::vector<uint32_t>> Preds(Blocks.size());
  for (uint32_t B = 0, E = static_cast<uint32_t>(Blocks.size()); B != E; ++B)
    for (uint32_t Succ : Blocks[B].Term.Succs)
      Preds[Succ].push_back(B);
  return Preds;
}

std::string MethodIr::str() const {
  std::string Out;
  auto LocalName = [&](LocalId Id) -> std::string {
    if (Id == NoLocal)
      return "_";
    return Locals[Id].Name;
  };
  for (uint32_t B = 0, E = static_cast<uint32_t>(Blocks.size()); B != E; ++B) {
    Out += formatStr("bb%u:\n", B);
    for (const Action &A : Blocks[B].Actions) {
      Out += "  ";
      switch (A.Kind) {
      case ActionKind::Alloc:
        Out += LocalName(A.Dst) + " = new " +
               (A.AllocClass ? A.AllocClass->Name : "?");
        break;
      case ActionKind::Call:
        Out += LocalName(A.Dst) + " = " + LocalName(A.Recv) + "." +
               (A.Callee ? A.Callee->Name : "?") + "(";
        for (size_t I = 0; I != A.Args.size(); ++I) {
          if (I)
            Out += ", ";
          Out += LocalName(A.Args[I]);
        }
        Out += ")";
        break;
      case ActionKind::Copy:
        Out += LocalName(A.Dst) + " = " + LocalName(A.Src);
        break;
      case ActionKind::FieldLoad:
        Out += LocalName(A.Dst) + " = " + LocalName(A.Recv) + "." +
               A.FieldName;
        break;
      case ActionKind::FieldStore:
        Out += LocalName(A.Recv) + "." + A.FieldName + " = " +
               LocalName(A.Src);
        break;
      case ActionKind::Return:
        Out += "return " + LocalName(A.Src);
        break;
      case ActionKind::EnterSync:
        Out += "entersync " + LocalName(A.Recv);
        break;
      case ActionKind::ExitSync:
        Out += "exitsync";
        break;
      case ActionKind::OpaqueUse:
        Out += LocalName(A.Dst) + " = opaque";
        break;
      }
      Out += "\n";
    }
    const Terminator &T = Blocks[B].Term;
    switch (T.Kind) {
    case TermKind::Goto:
      Out += formatStr("  goto bb%u\n", T.Succs[0]);
      break;
    case TermKind::CondBranch:
      Out += formatStr("  br bb%u, bb%u", T.Succs[0], T.Succs[1]);
      if (T.StateTest)
        Out += formatStr(" (test %s%s)", T.StateTest->Negated ? "!" : "",
                         T.StateTest->TestMethod->Name.c_str());
      Out += "\n";
      break;
    case TermKind::Exit:
      Out += "  exit\n";
      break;
    }
  }
  return Out;
}

static TypeDecl *classOf(const Expr &E) {
  return E.Type.isClass() ? E.Type.Decl : nullptr;
}

LocalId IrLowering::lowerExpr(Expr *E) {
  assert(E && "lowering null expression");
  switch (E->getKind()) {
  case Expr::Kind::VarRef: {
    auto *Ref = cast<VarRefExpr>(E);
    switch (Ref->Binding) {
    case VarRefBinding::Local: {
      auto It = LocalSlots.find(Ref->LocalDecl);
      assert(It != LocalSlots.end() && "use before declaration");
      return It->second;
    }
    case VarRefBinding::Param:
      return Ir.ParamLocals[Ref->ParamIndex];
    case VarRefBinding::FieldOfThis: {
      LocalId Dst = newTemp(classOf(*Ref));
      Action &A = emit(ActionKind::FieldLoad, Ref->getLoc());
      A.Dst = Dst;
      A.Recv = Ir.ReceiverLocal;
      A.FieldName = Ref->Name;
      return Dst;
    }
    case VarRefBinding::Unresolved:
      break;
    }
    // Unresolved names were already diagnosed by Sema; yield a fresh temp.
    return newTemp(nullptr);
  }
  case Expr::Kind::This:
    assert(Ir.ReceiverLocal != NoLocal && "'this' in a static method");
    return Ir.ReceiverLocal;
  case Expr::Kind::FieldRead: {
    auto *Read = cast<FieldReadExpr>(E);
    LocalId Base = lowerExpr(Read->Base.get());
    LocalId Dst = newTemp(classOf(*Read));
    Action &A = emit(ActionKind::FieldLoad, Read->getLoc());
    A.Dst = Dst;
    A.Recv = Base;
    A.FieldName = Read->FieldName;
    return Dst;
  }
  case Expr::Kind::Call: {
    auto *Call = cast<CallExpr>(E);
    LocalId Recv = NoLocal;
    if (Call->Base)
      Recv = lowerExpr(Call->Base.get());
    else if (Call->Callee && !Call->Callee->IsStatic)
      Recv = Ir.ReceiverLocal;
    std::vector<LocalId> Args;
    Args.reserve(Call->Args.size());
    for (const ExprPtr &Arg : Call->Args)
      Args.push_back(lowerExpr(Arg.get()));
    LocalId Dst = newTemp(classOf(*Call));
    Action &A = emit(ActionKind::Call, Call->getLoc());
    A.Dst = Dst;
    A.Recv = Recv;
    A.Args = std::move(Args);
    A.Callee = Call->Callee;
    return Dst;
  }
  case Expr::Kind::New: {
    auto *New = cast<NewExpr>(E);
    std::vector<LocalId> Args;
    Args.reserve(New->Args.size());
    for (const ExprPtr &Arg : New->Args)
      Args.push_back(lowerExpr(Arg.get()));
    LocalId Dst = newTemp(New->ClassType.Decl);
    Action &A = emit(ActionKind::Alloc, New->getLoc());
    A.Dst = Dst;
    A.Args = std::move(Args);
    A.Callee = New->Ctor;
    A.AllocClass = New->ClassType.Decl;
    return Dst;
  }
  case Expr::Kind::Assign: {
    auto *Assign = cast<AssignExpr>(E);
    lowerAssign(Assign);
    // The value of the assignment is the RHS value; re-lowering the LHS as
    // a read is observationally fine for our permission abstraction
    // because assignments-as-values are rare in the corpus.
    if (auto *Ref = dyn_cast<VarRefExpr>(Assign->Lhs.get()))
      if (Ref->Binding != VarRefBinding::FieldOfThis)
        return lowerExpr(Ref);
    return newTemp(classOf(*Assign));
  }
  case Expr::Kind::IntLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::StringLit:
  case Expr::Kind::NullLit: {
    LocalId Dst = newTemp(classOf(*E));
    Action &A = emit(ActionKind::OpaqueUse, E->getLoc());
    A.Dst = Dst;
    return Dst;
  }
  case Expr::Kind::Binary: {
    auto *Bin = cast<BinaryExpr>(E);
    // Both operands are evaluated for their permission effects; the
    // primitive result itself carries no permission.
    lowerExpr(Bin->Lhs.get());
    lowerExpr(Bin->Rhs.get());
    LocalId Dst = newTemp(nullptr);
    Action &A = emit(ActionKind::OpaqueUse, Bin->getLoc());
    A.Dst = Dst;
    return Dst;
  }
  case Expr::Kind::Unary: {
    auto *Un = cast<UnaryExpr>(E);
    lowerExpr(Un->Operand.get());
    LocalId Dst = newTemp(nullptr);
    Action &A = emit(ActionKind::OpaqueUse, Un->getLoc());
    A.Dst = Dst;
    return Dst;
  }
  }
  assert(false && "unknown expression kind");
  return NoLocal;
}

void IrLowering::lowerAssign(AssignExpr *Assign) {
  if (auto *Ref = dyn_cast<VarRefExpr>(Assign->Lhs.get())) {
    if (Ref->Binding == VarRefBinding::FieldOfThis) {
      LocalId Src = lowerExpr(Assign->Rhs.get());
      Action &A = emit(ActionKind::FieldStore, Assign->getLoc());
      A.Recv = Ir.ReceiverLocal;
      A.FieldName = Ref->Name;
      A.Src = Src;
      return;
    }
    LocalId Src = lowerExpr(Assign->Rhs.get());
    LocalId Dst;
    if (Ref->Binding == VarRefBinding::Local) {
      auto It = LocalSlots.find(Ref->LocalDecl);
      assert(It != LocalSlots.end() && "assignment before declaration");
      Dst = It->second;
    } else {
      Dst = Ir.ParamLocals[Ref->ParamIndex];
    }
    Action &A = emit(ActionKind::Copy, Assign->getLoc());
    A.Dst = Dst;
    A.Src = Src;
    return;
  }
  auto *Read = cast<FieldReadExpr>(Assign->Lhs.get());
  LocalId Base = lowerExpr(Read->Base.get());
  LocalId Src = lowerExpr(Assign->Rhs.get());
  Action &A = emit(ActionKind::FieldStore, Assign->getLoc());
  A.Recv = Base;
  A.FieldName = Read->FieldName;
  A.Src = Src;
}

std::optional<StateTestInfo> IrLowering::recognizeStateTest(Expr *Cond) {
  bool Negated = false;
  while (auto *Un = dyn_cast<UnaryExpr>(Cond)) {
    if (Un->Op != UnaryOp::Not)
      return std::nullopt;
    Negated = !Negated;
    Cond = Un->Operand.get();
  }
  auto *Call = dyn_cast<CallExpr>(Cond);
  if (!Call || !Call->Callee)
    return std::nullopt;
  const MethodSpec &Spec = Call->Callee->DeclaredSpec;
  if (Spec.TrueIndicates.empty() && Spec.FalseIndicates.empty())
    return std::nullopt;
  return StateTestInfo{NoLocal, Call->Callee, Negated};
}

void IrLowering::lowerStmt(Stmt *S) {
  assert(S && "lowering null statement");
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Inner : cast<BlockStmt>(S)->Stmts)
      lowerStmt(Inner.get());
    return;
  case Stmt::Kind::VarDecl: {
    auto *Decl = cast<VarDeclStmt>(S);
    LocalId Slot = newLocal(LocalKind::UserVar, Decl->Name,
                            Decl->Type.isClass() ? Decl->Type.Decl : nullptr);
    LocalSlots[Decl] = Slot;
    if (Decl->Init) {
      LocalId Src = lowerExpr(Decl->Init.get());
      Action &A = emit(ActionKind::Copy, Decl->getLoc());
      A.Dst = Slot;
      A.Src = Src;
    }
    return;
  }
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    std::optional<StateTestInfo> Test = recognizeStateTest(If->Cond.get());
    lowerExpr(If->Cond.get());
    if (Test) {
      // The subject is the receiver of the just-emitted test call.
      for (auto It = block(Cur).Actions.rbegin(),
                E = block(Cur).Actions.rend();
           It != E; ++It) {
        if (It->Kind == ActionKind::Call && It->Callee == Test->TestMethod) {
          Test->Subject = It->Recv;
          break;
        }
      }
    }

    uint32_t CondBlock = Cur;
    uint32_t ThenBlock = newBlock();
    uint32_t ElseBlock = newBlock();
    uint32_t JoinBlock = newBlock();

    block(CondBlock).Term.Kind = TermKind::CondBranch;
    block(CondBlock).Term.Succs = {ThenBlock, ElseBlock};
    if (Test && Test->Subject != NoLocal)
      block(CondBlock).Term.StateTest = Test;

    Cur = ThenBlock;
    lowerStmt(If->Then.get());
    setGoto(Cur, JoinBlock);

    Cur = ElseBlock;
    if (If->Else)
      lowerStmt(If->Else.get());
    setGoto(Cur, JoinBlock);

    Cur = JoinBlock;
    return;
  }
  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    uint32_t HeadBlock = newBlock();
    setGoto(Cur, HeadBlock);
    Cur = HeadBlock;

    std::optional<StateTestInfo> Test = recognizeStateTest(While->Cond.get());
    lowerExpr(While->Cond.get());
    if (Test) {
      for (auto It = block(Cur).Actions.rbegin(),
                E = block(Cur).Actions.rend();
           It != E; ++It) {
        if (It->Kind == ActionKind::Call && It->Callee == Test->TestMethod) {
          Test->Subject = It->Recv;
          break;
        }
      }
    }
    // The condition may span blocks only if it contained control flow,
    // which our expression lowering never introduces.
    uint32_t CondEnd = Cur;
    uint32_t BodyBlock = newBlock();
    uint32_t ExitBlock = newBlock();
    block(CondEnd).Term.Kind = TermKind::CondBranch;
    block(CondEnd).Term.Succs = {BodyBlock, ExitBlock};
    if (Test && Test->Subject != NoLocal)
      block(CondEnd).Term.StateTest = Test;

    Cur = BodyBlock;
    lowerStmt(While->Body.get());
    setGoto(Cur, HeadBlock); // Back edge.

    Cur = ExitBlock;
    return;
  }
  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    LocalId Src = NoLocal;
    if (Ret->Value)
      Src = lowerExpr(Ret->Value.get());
    Action &A = emit(ActionKind::Return, Ret->getLoc());
    A.Src = Src;
    // Statements after a return are unreachable; route them to a fresh
    // block that still flows to the exit so the IR stays well formed.
    block(Cur).Term.Kind = TermKind::Exit;
    block(Cur).Term.Succs.clear();
    Cur = newBlock();
    return;
  }
  case Stmt::Kind::Assert:
    lowerExpr(cast<AssertStmt>(S)->Cond.get());
    return;
  case Stmt::Kind::Synchronized: {
    auto *Sync = cast<SynchronizedStmt>(S);
    LocalId Target = lowerExpr(Sync->Target.get());
    Action &Enter = emit(ActionKind::EnterSync, Sync->getLoc());
    Enter.Recv = Target;
    lowerStmt(Sync->Body.get());
    emit(ActionKind::ExitSync, Sync->getLoc());
    return;
  }
  case Stmt::Kind::ExprStmt:
    lowerExpr(cast<ExprStmt>(S)->E.get());
    return;
  }
}

MethodIr IrLowering::run() {
  // Receiver and parameters get the first slots.
  if (!Method.IsStatic)
    Ir.ReceiverLocal =
        newLocal(LocalKind::Receiver, "this", Method.Owner);
  for (unsigned I = 0, E = static_cast<unsigned>(Method.Params.size());
       I != E; ++I) {
    const ParamDecl &Param = Method.Params[I];
    LocalId Slot = newLocal(LocalKind::Param, Param.Name,
                            Param.Type.isClass() ? Param.Type.Decl : nullptr);
    Ir.Locals[Slot].ParamIndex = I;
    Ir.ParamLocals.push_back(Slot);
  }

  Cur = newBlock();
  assert(Cur == MethodIr::EntryBlock && "entry must be block 0");
  lowerStmt(Method.Body.get());
  if (block(Cur).Term.Kind == TermKind::Goto &&
      block(Cur).Term.Succs.empty())
    block(Cur).Term.Kind = TermKind::Exit;
  // The final fall-through block exits the method.
  if (block(Cur).Term.Succs.empty())
    block(Cur).Term.Kind = TermKind::Exit;
  return std::move(Ir);
}

MethodIr anek::lowerToIr(MethodDecl &Method) {
  assert(Method.Body && "cannot lower a bodiless method");
  telemetry::Span S("analysis.ir", "analysis");
  IrLowering Lowering(Method);
  MethodIr Ir = Lowering.run();
  if (S.active()) {
    S.arg("method", Method.qualifiedName());
    S.arg("blocks", static_cast<uint64_t>(Ir.Blocks.size()));
  }
  if (telemetry::metering()) {
    telemetry::counter("analysis.ir.methods").add(1);
    telemetry::histogram("analysis.ir.blocks")
        .record(static_cast<double>(Ir.Blocks.size()));
  }
  return Ir;
}
