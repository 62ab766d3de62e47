//===- GlobalInfer.h - Whole-program joint inference -------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two non-modular baselines:
///
///  - runGlobalInfer: builds the paper's Definition 1 model literally —
///    the product of every method's constraint system plus PARAMARG
///    equality factors binding parameters to arguments across call sites —
///    and solves it as one joint factor graph. At a fixpoint ANEK-INFER is
///    meant to agree with this (Section 3.4); it also anchors the
///    scalability bench.
///
///  - runLogicalInfer: the paper's "Anek Logical" configuration: only
///    logical constraints, solved deterministically (satisfying-assignment
///    enumeration). On anything beyond toy programs this exhausts its
///    resource budget and reports DNF, as in Table 2.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_GLOBALINFER_H
#define ANEK_INFER_GLOBALINFER_H

#include "infer/AnekInfer.h"

namespace anek {

/// Result of the joint whole-program inference. Inferred is keyed in
/// declaration order (MethodDeclMap) so printing it is deterministic.
struct GlobalResult {
  MethodDeclMap<MethodSpec> Inferred;
  unsigned TotalVariables = 0;
  unsigned TotalFactors = 0;
  double SolveSeconds = 0.0;

  /// How the single joint solve left the fallback cascade (solveCascade,
  /// shared with the modular algorithm).
  MethodReport Report;
  /// Methods whose model construction failed and were left out of the
  /// joint graph (each has a warning in the DiagnosticEngine).
  unsigned MethodsFailed = 0;
};

/// Solves the whole program as one factor graph (Definition 1). A method
/// whose model cannot be built is skipped with a warning in \p Diags;
/// the joint graph covers everything else.
GlobalResult runGlobalInfer(Program &Prog, const InferOptions &Opts = {},
                            DiagnosticEngine *Diags = nullptr);

/// Result of the deterministic logical-only inference.
struct LogicalResult {
  /// False when the solver gave up (DNF) — either too many variables for
  /// enumeration or an unsatisfiable constraint system (buggy program).
  bool Finished = false;
  /// Why it did not finish (empty when Finished).
  std::string FailureReason;
  unsigned TotalVariables = 0;
  unsigned TotalFactors = 0;
  /// Assignments the enumeration would have to consider (2^vars), as a
  /// log2 so it stays printable.
  double Log2SearchSpace = 0.0;
  MethodDeclMap<MethodSpec> Inferred;
  double SolveSeconds = 0.0;
};

/// Runs the deterministic logical-only configuration. \p VarLimit bounds
/// the enumeration (the "memory budget").
LogicalResult runLogicalInfer(Program &Prog, unsigned VarLimit = 24,
                              const InferOptions &Opts = {});

} // namespace anek

#endif // ANEK_INFER_GLOBALINFER_H
