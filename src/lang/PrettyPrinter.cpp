//===- PrettyPrinter.cpp - Render MiniJava ASTs back to source -------------===//

#include "lang/PrettyPrinter.h"

#include <cassert>

using namespace anek;

static const char *binaryOpText(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

std::string anek::printExpr(const Expr &E) {
  switch (E.getKind()) {
  case Expr::Kind::VarRef:
    return cast<VarRefExpr>(&E)->Name;
  case Expr::Kind::This:
    return "this";
  case Expr::Kind::FieldRead: {
    const auto *Read = cast<FieldReadExpr>(&E);
    return printExpr(*Read->Base) + "." + Read->FieldName;
  }
  case Expr::Kind::Call: {
    const auto *Call = cast<CallExpr>(&E);
    std::string Out =
        Call->Base ? printExpr(*Call->Base) + "." : std::string();
    Out += Call->MethodName;
    Out += "(";
    for (size_t I = 0, N = Call->Args.size(); I != N; ++I) {
      if (I != 0)
        Out += ", ";
      Out += printExpr(*Call->Args[I]);
    }
    Out += ")";
    return Out;
  }
  case Expr::Kind::New: {
    const auto *New = cast<NewExpr>(&E);
    std::string Out = "new " + New->ClassType.str() + "(";
    for (size_t I = 0, N = New->Args.size(); I != N; ++I) {
      if (I != 0)
        Out += ", ";
      Out += printExpr(*New->Args[I]);
    }
    Out += ")";
    return Out;
  }
  case Expr::Kind::Assign: {
    const auto *Assign = cast<AssignExpr>(&E);
    return printExpr(*Assign->Lhs) + " = " + printExpr(*Assign->Rhs);
  }
  case Expr::Kind::IntLit:
    return std::to_string(cast<IntLitExpr>(&E)->Value);
  case Expr::Kind::BoolLit:
    return cast<BoolLitExpr>(&E)->Value ? "true" : "false";
  case Expr::Kind::StringLit:
    return "\"" + cast<StringLitExpr>(&E)->Value + "\"";
  case Expr::Kind::NullLit:
    return "null";
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(&E);
    return "(" + printExpr(*Bin->Lhs) + " " + binaryOpText(Bin->Op) + " " +
           printExpr(*Bin->Rhs) + ")";
  }
  case Expr::Kind::Unary: {
    const auto *Un = cast<UnaryExpr>(&E);
    return std::string(Un->Op == UnaryOp::Not ? "!" : "-") +
           printExpr(*Un->Operand);
  }
  }
  assert(false && "unknown expression kind");
  return "";
}

static std::string indentOf(unsigned Level) {
  return std::string(2 * static_cast<size_t>(Level), ' ');
}

std::string anek::printStmt(const Stmt &S, unsigned Level) {
  std::string Pad = indentOf(Level);
  switch (S.getKind()) {
  case Stmt::Kind::Block: {
    std::string Out = Pad + "{\n";
    for (const StmtPtr &Inner : cast<BlockStmt>(&S)->Stmts)
      Out += printStmt(*Inner, Level + 1);
    Out += Pad + "}\n";
    return Out;
  }
  case Stmt::Kind::VarDecl: {
    const auto *Decl = cast<VarDeclStmt>(&S);
    std::string Out = Pad + Decl->Type.str() + " " + Decl->Name;
    if (Decl->Init)
      Out += " = " + printExpr(*Decl->Init);
    Out += ";\n";
    return Out;
  }
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(&S);
    std::string Out = Pad + "if (" + printExpr(*If->Cond) + ")\n";
    Out += printStmt(*If->Then, Level + 1);
    if (If->Else) {
      Out += Pad + "else\n";
      Out += printStmt(*If->Else, Level + 1);
    }
    return Out;
  }
  case Stmt::Kind::While: {
    const auto *While = cast<WhileStmt>(&S);
    return Pad + "while (" + printExpr(*While->Cond) + ")\n" +
           printStmt(*While->Body, Level + 1);
  }
  case Stmt::Kind::Return: {
    const auto *Ret = cast<ReturnStmt>(&S);
    if (Ret->Value)
      return Pad + "return " + printExpr(*Ret->Value) + ";\n";
    return Pad + "return;\n";
  }
  case Stmt::Kind::Assert:
    return Pad + "assert " + printExpr(*cast<AssertStmt>(&S)->Cond) + ";\n";
  case Stmt::Kind::Synchronized: {
    const auto *Sync = cast<SynchronizedStmt>(&S);
    return Pad + "synchronized (" + printExpr(*Sync->Target) + ")\n" +
           printStmt(*Sync->Body, Level + 1);
  }
  case Stmt::Kind::ExprStmt:
    return Pad + printExpr(*cast<ExprStmt>(&S)->E) + ";\n";
  }
  assert(false && "unknown statement kind");
  return "";
}

/// Prints the @Perm annotation for \p Spec, if any atom is present.
static std::string printSpecAnnotation(const MethodSpec &Spec,
                                       const std::vector<std::string> &Names,
                                       const std::string &Pad) {
  std::string Requires = printSpecSide(Spec, /*IsRequires=*/true, Names);
  std::string Ensures = printSpecSide(Spec, /*IsRequires=*/false, Names);
  if (Requires.empty() && Ensures.empty())
    return "";
  std::string Out = Pad + "@Perm(";
  if (!Requires.empty())
    Out += "requires=\"" + Requires + "\"";
  if (!Ensures.empty()) {
    if (!Requires.empty())
      Out += ", ";
    Out += "ensures=\"" + Ensures + "\"";
  }
  Out += ")\n";
  return Out;
}

static std::string printMethod(const MethodDecl &Method,
                               const PrintOptions &Opts, unsigned Level) {
  std::string Pad = indentOf(Level);
  std::string Out;

  MethodSpec Spec = Opts.SpecFor ? Opts.SpecFor(Method)
                    : Method.HasDeclaredSpec ? Method.DeclaredSpec
                                             : MethodSpec();
  Out += printSpecAnnotation(Spec, Method.paramNames(), Pad);
  if (!Spec.TrueIndicates.empty())
    Out += Pad + "@TrueIndicates(\"" + Spec.TrueIndicates + "\")\n";
  if (!Spec.FalseIndicates.empty())
    Out += Pad + "@FalseIndicates(\"" + Spec.FalseIndicates + "\")\n";
  if (Method.IsTest)
    Out += Pad + "@Test\n";

  Out += Pad;
  if (Method.IsStatic)
    Out += "static ";
  if (!Method.IsCtor) {
    Out += Method.ReturnType.str();
    Out += " ";
  }
  Out += Method.Name;
  Out += "(";
  for (size_t I = 0, N = Method.Params.size(); I != N; ++I) {
    if (I != 0)
      Out += ", ";
    Out += Method.Params[I].Type.str() + " " + Method.Params[I].Name;
  }
  Out += ")";
  if (!Method.Body) {
    Out += ";\n";
    return Out;
  }
  Out += "\n";
  Out += printStmt(*Method.Body, Level);
  return Out;
}

std::string anek::printProgram(const Program &Prog, const PrintOptions &Opts) {
  std::string Out;
  for (const auto &Type : Prog.Types) {
    if (!Type->Loc.isValid() && Type->Methods.empty() && Type->Fields.empty())
      continue; // Skip synthesized ambient types (String, Object).
    if (Type->States.size() > 1) {
      Out += "@States({";
      for (StateId Id = 1, E = Type->States.size(); Id != E; ++Id) {
        if (Id != 1)
          Out += ", ";
        Out += "\"" + Type->States.name(Id) + "\"";
      }
      Out += "})\n";
    }
    Out += Type->IsInterface ? "interface " : "class ";
    Out += Type->Name;
    if (!Type->TypeParams.empty()) {
      Out += "<";
      for (size_t I = 0, N = Type->TypeParams.size(); I != N; ++I) {
        if (I != 0)
          Out += ", ";
        Out += Type->TypeParams[I];
      }
      Out += ">";
    }
    if (!Type->SuperName.empty())
      Out += " extends " + Type->SuperName;
    if (!Type->InterfaceNames.empty()) {
      Out += Type->IsInterface ? " extends " : " implements ";
      for (size_t I = 0, N = Type->InterfaceNames.size(); I != N; ++I) {
        if (I != 0)
          Out += ", ";
        Out += Type->InterfaceNames[I];
      }
    }
    Out += " {\n";
    for (const FieldDecl &Field : Type->Fields)
      Out += indentOf(1) + Field.Type.str() + " " + Field.Name + ";\n";
    for (const auto &Method : Type->Methods) {
      Out += printMethod(*Method, Opts, 1);
      Out += "\n";
    }
    Out += "}\n\n";
  }
  return Out;
}
