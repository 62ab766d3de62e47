//===- Sema.cpp - MiniJava semantic analysis -------------------------------===//

#include "lang/Sema.h"

#include "lang/Parser.h"
#include "support/Trace.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace anek;

namespace {

/// Implements the analysis passes; one instance per program.
class SemaImpl {
public:
  SemaImpl(Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags) {}

  bool run();

private:
  void resolveHierarchy();
  void buildStateSpace(TypeDecl &Type);
  void attachSpecs(TypeDecl &Type, MethodDecl &Method);
  void analyzeMethod(MethodDecl &Method);

  // Body analysis.
  void visitStmt(Stmt *S);
  void visitExpr(Expr *E);
  ExprType typeOfClass(TypeDecl *Decl) {
    ExprType T;
    T.Kind = TypeRef::Tag::Class;
    T.Decl = Decl;
    return T;
  }
  ExprType typeOfRef(const TypeRef &Ref);
  TypeDecl *resolveClassName(const std::string &Name, SourceLocation Loc);

  // Scope management for locals.
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  VarDeclStmt *lookupLocal(const std::string &Name);

  Program &Prog;
  DiagnosticEngine &Diags;
  TypeDecl *CurType = nullptr;
  MethodDecl *CurMethod = nullptr;
  std::vector<std::unordered_map<std::string, VarDeclStmt *>> Scopes;
  std::unordered_set<const TypeDecl *> StatesBuilt;
};

} // namespace

TypeDecl *SemaImpl::resolveClassName(const std::string &Name,
                                     SourceLocation Loc) {
  // Generic type parameters erase to Object (the analysis is
  // monomorphic, matching the paper's treatment of Java generics).
  if (CurType) {
    for (const std::string &Param : CurType->TypeParams)
      if (Param == Name)
        return resolveClassName("Object", Loc);
  }
  // `String` and `Object` are ambient library classes; synthesize them on
  // first use so programs need not declare them.
  if (TypeDecl *Decl = Prog.findType(Name))
    return Decl;
  if (Name == "String" || Name == "Object" || Name == "Integer") {
    auto Ambient = std::make_unique<TypeDecl>();
    Ambient->Name = Name;
    Ambient->Loc = SourceLocation();
    TypeDecl *Raw = Ambient.get();
    Prog.Types.push_back(std::move(Ambient));
    return Raw;
  }
  Diags.error(Loc, "unknown type '" + Name + "'");
  return nullptr;
}

void SemaImpl::resolveHierarchy() {
  for (const auto &Type : Prog.Types) {
    if (!Type->SuperName.empty()) {
      Type->Super = resolveClassName(Type->SuperName, Type->Loc);
      if (Type->Super == Type.get()) {
        Diags.error(Type->Loc, "type '" + Type->Name + "' extends itself");
        Type->Super = nullptr;
      }
    }
    for (const std::string &Name : Type->InterfaceNames)
      if (TypeDecl *Iface = resolveClassName(Name, Type->Loc))
        Type->Interfaces.push_back(Iface);
  }
}

void SemaImpl::buildStateSpace(TypeDecl &Type) {
  if (StatesBuilt.count(&Type))
    return;
  StatesBuilt.insert(&Type);

  // Inherit the supertype spaces first.
  auto InheritFrom = [&](TypeDecl *Parent) {
    if (!Parent)
      return;
    buildStateSpace(*Parent);
    for (StateId Id = 1, E = Parent->States.size(); Id != E; ++Id) {
      StateId ParentOfId = Parent->States.parent(Id);
      // Parent chains are topologically ordered (parents precede
      // children), so the parent name is already present.
      StateId Mapped = StateSpace::AliveId;
      if (ParentOfId != StateSpace::AliveId)
        Mapped = *Type.States.find(Parent->States.name(ParentOfId));
      Type.States.addState(Parent->States.name(Id), Mapped);
    }
  };
  InheritFrom(Type.Super);
  for (TypeDecl *Iface : Type.Interfaces)
    InheritFrom(Iface);

  for (const RawAnnotation &Annot : Type.Annotations) {
    if (Annot.Name != "States")
      continue;
    StateId Parent = StateSpace::AliveId;
    const std::string &Refines = Annot.arg("refines");
    if (!Refines.empty()) {
      if (std::optional<StateId> Found = Type.States.find(Refines))
        Parent = *Found;
      else
        Diags.error(Annot.Loc, "@States refines unknown state '" + Refines +
                                   "'");
    }
    for (const std::string &Name : Annot.ListArgs)
      Type.States.addState(Name, Parent);
  }
}

void SemaImpl::attachSpecs(TypeDecl &Type, MethodDecl &Method) {
  Method.Owner = &Type;
  Method.DeclaredSpec.resizeParams(static_cast<unsigned>(
      Method.Params.size()));
  std::vector<std::string> ParamNames = Method.paramNames();

  for (const RawAnnotation &Annot : Method.Annotations) {
    if (Annot.Name == "Test") {
      Method.IsTest = true;
      continue;
    }
    if (Annot.Name == "TrueIndicates") {
      Method.DeclaredSpec.TrueIndicates = Annot.arg("value");
      continue;
    }
    if (Annot.Name == "FalseIndicates") {
      Method.DeclaredSpec.FalseIndicates = Annot.arg("value");
      continue;
    }
    if (Annot.Name != "Perm" && Annot.Name != "Spec")
      continue;

    std::string Error;
    auto Requires = parseSpecAtoms(Annot.arg("requires"), ParamNames, Error);
    if (!Requires) {
      Diags.error(Annot.Loc, "in requires: " + Error);
      continue;
    }
    auto Ensures = parseSpecAtoms(Annot.arg("ensures"), ParamNames, Error);
    if (!Ensures) {
      Diags.error(Annot.Loc, "in ensures: " + Error);
      continue;
    }
    std::optional<MethodSpec> Spec =
        buildMethodSpec(*Requires, *Ensures,
                        static_cast<unsigned>(Method.Params.size()), Error);
    if (!Spec) {
      Diags.error(Annot.Loc, Error);
      continue;
    }
    // Keep indicator annotations that may already have been attached.
    Spec->TrueIndicates = Method.DeclaredSpec.TrueIndicates;
    Spec->FalseIndicates = Method.DeclaredSpec.FalseIndicates;
    Method.DeclaredSpec = std::move(*Spec);
    Method.HasDeclaredSpec = true;
  }

  // Validate state names against the relevant state spaces.
  auto CheckState = [&](const std::optional<PermState> &PS, TypeDecl *Subject,
                        const char *What) {
    if (!PS || PS->State.empty() || !Subject)
      return;
    if (!Subject->States.find(PS->State))
      Diags.warning(Method.Loc, "spec for " + Method.qualifiedName() +
                                    " names state '" + PS->State +
                                    "' unknown to " + Subject->Name + " (" +
                                    What + ")");
  };
  CheckState(Method.DeclaredSpec.ReceiverPre, &Type, "receiver pre");
  CheckState(Method.DeclaredSpec.ReceiverPost, &Type, "receiver post");
}

ExprType SemaImpl::typeOfRef(const TypeRef &Ref) {
  ExprType T;
  T.Kind = Ref.Kind;
  if (Ref.isClass())
    T.Decl = Ref.Decl;
  return T;
}

VarDeclStmt *SemaImpl::lookupLocal(const std::string &Name) {
  for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return Found->second;
  }
  return nullptr;
}

void SemaImpl::visitExpr(Expr *E) {
  assert(E && "visiting null expression");
  switch (E->getKind()) {
  case Expr::Kind::VarRef: {
    auto *Ref = cast<VarRefExpr>(E);
    if (VarDeclStmt *Local = lookupLocal(Ref->Name)) {
      Ref->Binding = VarRefBinding::Local;
      Ref->LocalDecl = Local;
      Ref->Type = typeOfRef(Local->Type);
      return;
    }
    for (unsigned I = 0, N = static_cast<unsigned>(CurMethod->Params.size());
         I != N; ++I) {
      if (CurMethod->Params[I].Name == Ref->Name) {
        Ref->Binding = VarRefBinding::Param;
        Ref->ParamIndex = I;
        Ref->Type = typeOfRef(CurMethod->Params[I].Type);
        return;
      }
    }
    if (const FieldDecl *Field = CurMethod->Owner->findField(Ref->Name)) {
      Ref->Binding = VarRefBinding::FieldOfThis;
      Ref->Type = typeOfRef(Field->Type);
      return;
    }
    Diags.error(Ref->getLoc(), "unknown name '" + Ref->Name + "' in " +
                                   CurMethod->qualifiedName());
    return;
  }
  case Expr::Kind::This:
    E->Type = typeOfClass(CurMethod->Owner);
    return;
  case Expr::Kind::FieldRead: {
    auto *Read = cast<FieldReadExpr>(E);
    visitExpr(Read->Base.get());
    if (!Read->Base->Type.isClass() || !Read->Base->Type.Decl)
      return; // Already diagnosed or untyped.
    const FieldDecl *Field =
        Read->Base->Type.Decl->findField(Read->FieldName);
    if (!Field) {
      Diags.error(Read->getLoc(), "type '" + Read->Base->Type.Decl->Name +
                                      "' has no field '" + Read->FieldName +
                                      "'");
      return;
    }
    Read->Type = typeOfRef(Field->Type);
    return;
  }
  case Expr::Kind::Call: {
    auto *Call = cast<CallExpr>(E);
    TypeDecl *ReceiverType = nullptr;
    if (Call->Base) {
      visitExpr(Call->Base.get());
      ReceiverType = Call->Base->Type.Decl;
      if (!Call->Base->Type.isClass()) {
        Diags.error(Call->getLoc(),
                    "method call on a non-object value in " +
                        CurMethod->qualifiedName());
      }
    } else {
      ReceiverType = CurMethod->Owner;
    }
    for (const ExprPtr &Arg : Call->Args)
      visitExpr(Arg.get());
    if (!ReceiverType)
      return;
    Call->Callee = ReceiverType->findMethod(
        Call->MethodName, static_cast<unsigned>(Call->Args.size()));
    if (!Call->Callee) {
      Diags.error(Call->getLoc(), "no method '" + Call->MethodName + "/" +
                                      std::to_string(Call->Args.size()) +
                                      "' on type '" + ReceiverType->Name +
                                      "'");
      return;
    }
    E->Type = typeOfRef(Call->Callee->ReturnType);
    return;
  }
  case Expr::Kind::New: {
    auto *New = cast<NewExpr>(E);
    for (const ExprPtr &Arg : New->Args)
      visitExpr(Arg.get());
    TypeDecl *Decl = resolveClassName(New->ClassType.Name, New->getLoc());
    New->ClassType.Decl = Decl;
    if (Decl) {
      if (Decl->IsInterface)
        Diags.error(New->getLoc(),
                    "cannot instantiate interface '" + Decl->Name + "'");
      for (const auto &M : Decl->Methods)
        if (M->IsCtor && M->Params.size() == New->Args.size())
          New->Ctor = M.get();
      E->Type = typeOfClass(Decl);
    }
    return;
  }
  case Expr::Kind::Assign: {
    auto *Assign = cast<AssignExpr>(E);
    visitExpr(Assign->Rhs.get());
    visitExpr(Assign->Lhs.get());
    E->Type = Assign->Lhs->Type;
    return;
  }
  case Expr::Kind::IntLit:
    E->Type.Kind = TypeRef::Tag::Int;
    return;
  case Expr::Kind::BoolLit:
    E->Type.Kind = TypeRef::Tag::Boolean;
    return;
  case Expr::Kind::StringLit:
    E->Type = typeOfClass(resolveClassName("String", E->getLoc()));
    return;
  case Expr::Kind::NullLit:
    E->Type.Kind = TypeRef::Tag::Class; // Null inhabits any class type.
    E->Type.Decl = nullptr;
    return;
  case Expr::Kind::Binary: {
    auto *Bin = cast<BinaryExpr>(E);
    visitExpr(Bin->Lhs.get());
    visitExpr(Bin->Rhs.get());
    switch (Bin->Op) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Gt:
    case BinaryOp::Le:
    case BinaryOp::Ge:
    case BinaryOp::And:
    case BinaryOp::Or:
      E->Type.Kind = TypeRef::Tag::Boolean;
      break;
    default:
      // String concatenation propagates String; everything else is int.
      if (Bin->Op == BinaryOp::Add && Bin->Lhs->Type.isClass())
        E->Type = Bin->Lhs->Type;
      else
        E->Type.Kind = TypeRef::Tag::Int;
      break;
    }
    return;
  }
  case Expr::Kind::Unary: {
    auto *Un = cast<UnaryExpr>(E);
    visitExpr(Un->Operand.get());
    E->Type.Kind = Un->Op == UnaryOp::Not ? TypeRef::Tag::Boolean
                                          : TypeRef::Tag::Int;
    return;
  }
  }
}

void SemaImpl::visitStmt(Stmt *S) {
  assert(S && "visiting null statement");
  switch (S->getKind()) {
  case Stmt::Kind::Block: {
    pushScope();
    for (const StmtPtr &Inner : cast<BlockStmt>(S)->Stmts)
      visitStmt(Inner.get());
    popScope();
    return;
  }
  case Stmt::Kind::VarDecl: {
    auto *Decl = cast<VarDeclStmt>(S);
    if (Decl->Type.isClass())
      Decl->Type.Decl = resolveClassName(Decl->Type.Name, Decl->getLoc());
    if (Decl->Init)
      visitExpr(Decl->Init.get());
    if (lookupLocal(Decl->Name))
      Diags.error(Decl->getLoc(),
                  "redeclaration of local '" + Decl->Name + "'");
    assert(!Scopes.empty() && "variable declared outside any scope");
    Scopes.back()[Decl->Name] = Decl;
    return;
  }
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    visitExpr(If->Cond.get());
    visitStmt(If->Then.get());
    if (If->Else)
      visitStmt(If->Else.get());
    return;
  }
  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    visitExpr(While->Cond.get());
    visitStmt(While->Body.get());
    return;
  }
  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    if (Ret->Value)
      visitExpr(Ret->Value.get());
    return;
  }
  case Stmt::Kind::Assert:
    visitExpr(cast<AssertStmt>(S)->Cond.get());
    return;
  case Stmt::Kind::Synchronized: {
    auto *Sync = cast<SynchronizedStmt>(S);
    visitExpr(Sync->Target.get());
    visitStmt(Sync->Body.get());
    return;
  }
  case Stmt::Kind::ExprStmt:
    visitExpr(cast<ExprStmt>(S)->E.get());
    return;
  }
}

void SemaImpl::analyzeMethod(MethodDecl &Method) {
  if (!Method.Body)
    return;
  CurMethod = &Method;
  // Resolve parameter types.
  for (ParamDecl &Param : Method.Params)
    if (Param.Type.isClass())
      Param.Type.Decl = resolveClassName(Param.Type.Name, Param.Loc);
  if (Method.ReturnType.isClass())
    Method.ReturnType.Decl =
        resolveClassName(Method.ReturnType.Name, Method.Loc);
  Scopes.clear();
  pushScope();
  visitStmt(Method.Body.get());
  popScope();
  CurMethod = nullptr;
}

bool SemaImpl::run() {
  resolveHierarchy();
  // Note: resolveClassName may append ambient types while we iterate, so
  // index-based loops are required here.
  for (size_t I = 0; I < Prog.Types.size(); ++I)
    buildStateSpace(*Prog.Types[I]);
  for (size_t I = 0; I < Prog.Types.size(); ++I) {
    TypeDecl &Type = *Prog.Types[I];
    CurType = &Type;
    for (FieldDecl &Field : Type.Fields)
      if (Field.Type.isClass() && !Field.Type.Decl)
        Field.Type.Decl = resolveClassName(Field.Type.Name, Field.Loc);
    for (const auto &Method : Type.Methods)
      attachSpecs(Type, *Method);
    CurType = nullptr;
  }
  for (size_t I = 0; I < Prog.Types.size(); ++I) {
    TypeDecl &Type = *Prog.Types[I];
    CurType = &Type;
    for (const auto &Method : Type.Methods) {
      // Resolve signature types even for bodiless methods, so specs and
      // call-site reasoning see resolved parameter/return classes.
      for (ParamDecl &Param : Method->Params)
        if (Param.Type.isClass() && !Param.Type.Decl)
          Param.Type.Decl = resolveClassName(Param.Type.Name, Param.Loc);
      if (Method->ReturnType.isClass() && !Method->ReturnType.Decl)
        Method->ReturnType.Decl =
            resolveClassName(Method->ReturnType.Name, Method->Loc);
      analyzeMethod(*Method);
    }
    CurType = nullptr;
  }
  // Number every method in declaration order (ambient types appended by
  // resolveClassName included). DeclIndexLess keys on this so downstream
  // iteration order never depends on pointer values.
  unsigned NextIndex = 0;
  for (const auto &Type : Prog.Types)
    for (const auto &Method : Type->Methods)
      Method->DeclIndex = NextIndex++;
  return !Diags.hasErrors();
}

bool anek::runSema(Program &Prog, DiagnosticEngine &Diags) {
  SemaImpl Impl(Prog, Diags);
  return Impl.run();
}

std::unique_ptr<Program> anek::parseAndAnalyze(const std::string &Source,
                                               DiagnosticEngine &Diags) {
  std::unique_ptr<Program> Prog;
  {
    // Lexing is interleaved with parsing (the parser pulls tokens on
    // demand), so this span covers both; frontend.tokens counts the lex
    // side on its own.
    telemetry::Span S("frontend.parse", "frontend");
    if (S.active())
      S.arg("bytes", static_cast<uint64_t>(Source.size()));
    Prog = Parser::parse(Source, Diags);
  }
  if (Diags.hasErrors())
    return nullptr;
  telemetry::Span S("frontend.sema", "frontend");
  if (!runSema(*Prog, Diags))
    return nullptr;
  if (S.active())
    S.arg("types", static_cast<uint64_t>(Prog->Types.size()));
  return Prog;
}
