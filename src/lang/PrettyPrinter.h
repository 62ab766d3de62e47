//===- PrettyPrinter.h - Render MiniJava ASTs back to source -----*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a Program back to MiniJava source. This is the reproduction of
/// the paper's "Eclipse Applier" (Fig. 10): after inference, methods can
/// be printed with their inferred @Perm annotations applied.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_LANG_PRETTYPRINTER_H
#define ANEK_LANG_PRETTYPRINTER_H

#include "lang/Ast.h"

#include <functional>
#include <string>

namespace anek {

/// Options controlling the printed output.
struct PrintOptions {
  /// When set, called per method to obtain the spec to print; when it
  /// returns an empty spec, no @Perm annotation is emitted. When unset,
  /// each method's DeclaredSpec is printed (if explicitly annotated).
  std::function<MethodSpec(const MethodDecl &)> SpecFor;
};

/// Prints a whole program.
std::string printProgram(const Program &Prog, const PrintOptions &Opts = {});

/// Prints one expression (used in diagnostics and tests).
std::string printExpr(const Expr &E);

/// Prints one statement subtree at the given indentation level.
std::string printStmt(const Stmt &S, unsigned Level = 0);

} // namespace anek

#endif // ANEK_LANG_PRETTYPRINTER_H
