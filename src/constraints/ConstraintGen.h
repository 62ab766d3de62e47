//===- ConstraintGen.h - Logical and heuristic constraints -------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Section 3.3: turns a PFG into probabilistic constraints.
///
/// Logical constraints (always generated):
///   L1 Outgoing — branch nodes propagate their permission unchanged to
///      every outgoing edge; split nodes obey the sound-splitting order of
///      Eq. 2 plus unique/full exclusivity across sibling edges; states
///      propagate unchanged across splits.
///   L2 Incoming — a node's permission equals (one of) its incoming
///      edges'.
///   L3 Field write — the receiver of a field store is immutable or pure
///      only with very low probability.
///
/// Heuristic constraints (each individually toggleable; all encode the
/// "intuitions gleaned from years of writing such specifications"):
///   H1 constructors return unique; H2 pre and post kinds match;
///   H3 create* methods return unique; H4 set* receivers are writing;
///   H5 synchronized targets are full/share/pure; H6 required
///   permissions are weak.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_CONSTRAINTS_CONSTRAINTGEN_H
#define ANEK_CONSTRAINTS_CONSTRAINTGEN_H

#include "constraints/VarMap.h"

namespace anek {

/// Which constraint families are generated. The probabilities of each
/// family (the h parameters of Section 3.3) are constants of
/// constraints/ConstraintGen.cpp; bench_ablation_heuristics flips these
/// toggles.
struct ConstraintOptions {
  bool EnableH1 = true;
  bool EnableH2 = true;
  bool EnableH3 = true;
  bool EnableH4 = true;
  bool EnableH5 = true;
  bool EnableH6 = true;

  /// Logical-only mode: drop every heuristic (the paper's "Anek Logical"
  /// configuration runs these constraints deterministically).
  bool LogicalOnly = false;

  /// The sibling-exclusivity conjunct of Eq. 2. PLURAL re-checks
  /// exclusivity soundly after inference, and as a soft factor it biases
  /// loopy BP against exclusive kinds on every split, so it is off by
  /// default (ablated in bench_ablation_heuristics).
  bool EnableExclusivity = false;

  /// Optional soft at-most-one-kind competition per node (off by default:
  /// it deflates marginals below the applied priors, which the summary
  /// cavity extraction reads as negative evidence; the paper extracts the
  /// most likely kind instead). Ablated in bench_ablation_heuristics.
  bool KindMutex = false;

  /// Returns a copy with all heuristics disabled.
  ConstraintOptions logicalOnly() const {
    ConstraintOptions Out = *this;
    Out.LogicalOnly = true;
    return Out;
  }
};

/// Statistics about generated constraints (for benches and tests).
struct ConstraintStats {
  unsigned BranchEquality = 0;
  unsigned SplitFactors = 0;
  unsigned ExclusivityFactors = 0;
  unsigned IncomingFactors = 0;
  unsigned FieldWriteFactors = 0;
  unsigned HeuristicFactors = 0;
};

/// Generates all constraints for \p P into \p G using the variables of
/// \p Vars.
ConstraintStats generateConstraints(const Pfg &P, FactorGraph &G,
                                    const PfgVarMap &Vars,
                                    const ConstraintOptions &Opts = {});

} // namespace anek

#endif // ANEK_CONSTRAINTS_CONSTRAINTGEN_H
