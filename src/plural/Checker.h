//===- Checker.h - The PLURAL modular typestate checker ----------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A modular, flow-sensitive typestate checker in the PLURAL style
/// (paper Section 2): one method at a time, reference types refined by
/// access permissions with fractions, abstract states tracked through
/// calls, and dynamic state tests (@TrueIndicates/@FalseIndicates) applied
/// branch-sensitively. Specifications come from a pluggable provider so
/// the same checker runs the paper's Original / Bierhoff / Anek
/// configurations.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_PLURAL_CHECKER_H
#define ANEK_PLURAL_CHECKER_H

#include "lang/Ast.h"
#include "support/Diagnostics.h"

#include <functional>
#include <vector>

namespace anek {

/// Supplies the spec for a method; must return non-null (an empty spec
/// means "unannotated").
using SpecProvider = std::function<const MethodSpec *(const MethodDecl *)>;

/// One checker warning (a subset of the diagnostics, kept structured for
/// the Table 2 metrics).
struct CheckWarning {
  SourceLocation Loc;
  const MethodDecl *InMethod = nullptr;
  const MethodDecl *Callee = nullptr; ///< Null for non-call warnings.
  std::string Message;
};

/// Result of checking a whole program.
struct CheckResult {
  std::vector<CheckWarning> Warnings;
  unsigned MethodsChecked = 0;

  unsigned warningCount() const {
    return static_cast<unsigned>(Warnings.size());
  }
};

/// Checks every method body in \p Prog against \p Specs.
CheckResult runChecker(Program &Prog, const SpecProvider &Specs);

/// Convenience provider: each method's declared spec only.
SpecProvider declaredSpecsOnly();

} // namespace anek

#endif // ANEK_PLURAL_CHECKER_H
