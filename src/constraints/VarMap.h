//===- VarMap.h - Random variables for PFG nodes and edges -------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Section 3.2: every PFG node and edge carries one Bernoulli
/// variable per permission kind and one per abstract state of its class.
/// This module creates those variables in a FactorGraph and provides the
/// prior-seeding helpers (existing specs get B(0.9)/B(0.1); everything
/// else starts at B(0.5)).
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_CONSTRAINTS_VARMAP_H
#define ANEK_CONSTRAINTS_VARMAP_H

#include "factor/FactorGraph.h"
#include "perm/PermKind.h"
#include "perm/Spec.h"
#include "pfg/Pfg.h"

#include <array>
#include <span>
#include <vector>

namespace anek {

/// The variables of one PFG node or edge: five permission-kind variables
/// plus one per abstract state (aligned with Pfg::statesOf, ALIVE first;
/// empty when the class is unknown).
struct PermVars {
  std::array<VarId, NumPermKinds> Kind{};
  std::vector<VarId> State;
};

/// Owns the node/edge -> variable mapping for one method's PFG.
class PfgVarMap {
public:
  /// Creates all variables in \p G with neutral B(0.5) priors.
  PfgVarMap(const Pfg &P, FactorGraph &G);

  const PermVars &node(PfgNodeId Id) const { return NodeVars[Id]; }
  const PermVars &edge(PfgEdgeId Id) const { return EdgeVars[Id]; }

private:
  std::vector<PermVars> NodeVars;
  std::vector<PermVars> EdgeVars;
};

/// Default high/low prior strengths for declared specifications
/// (paper Section 3.2 uses 0.9/0.1).
inline constexpr double SpecPriorHigh = 0.9;
inline constexpr double SpecPriorLow = 0.1;

/// Seeds priors of \p Vars from a declared PermState: the named kind and
/// state become B(Hi), every other kind/state B(Lo). A PermState with an
/// empty state names ALIVE. When \p PS is std::nullopt nothing changes
/// (unknown spec keeps B(0.5)).
void setSpecPriors(FactorGraph &G, const PermVars &Vars,
                   const std::vector<std::string> &States,
                   const std::optional<PermState> &PS,
                   double Hi = SpecPriorHigh, double Lo = SpecPriorLow);

/// Seeds priors of \p Vars from a dense marginal vector laid out as
/// [kinds..., states...]; entries beyond the vector keep their priors.
void setMarginalPriors(FactorGraph &G, const PermVars &Vars,
                       std::span<const double> Marginals);

/// Reads the marginals of \p Vars out of a solved marginal vector into the
/// dense [kinds..., states...] layout.
std::vector<double> readMarginals(const PermVars &Vars,
                                  const std::vector<double> &Solution);

} // namespace anek

#endif // ANEK_CONSTRAINTS_VARMAP_H
