//===- FactorGraph.h - Boolean factor graphs ---------------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The probabilistic substrate replacing INFER.NET: a factor graph over
/// Bernoulli variables. The joint distribution is the pointwise product of
/// per-variable priors and factor tables (paper Eq. 5); constraint
/// generation turns every logical/heuristic rule into a soft predicate
/// factor (paper Eq. 6): h where the predicate holds, 1-h elsewhere.
///
/// Belief propagation reads a graph through one cached flat layout,
/// EdgeLayout.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_FACTORGRAPH_H
#define ANEK_FACTOR_FACTORGRAPH_H

#include <cstdint>
#include <functional>
#include <vector>

namespace anek {

/// Index of a Bernoulli variable within one FactorGraph.
using VarId = uint32_t;

/// A factor graph over Boolean variables.
class FactorGraph {
public:
  /// One Bernoulli variable with its prior P(X = true).
  struct Variable {
    double Prior = 0.5;
  };

  /// One factor: a non-negative table over the joint assignments of its
  /// scope. Table index encoding: bit i set <=> Scope[i] is true.
  struct Factor {
    std::vector<VarId> Scope;
    std::vector<double> Table;
  };

  /// Largest supported factor scope (table size stays cache-friendly and
  /// message updates tractable).
  static constexpr unsigned MaxScope = 16;

  /// Adds a variable with prior \p Prior.
  VarId addVariable(double Prior);

  /// Adds a tabular factor. Table must have size 2^|Scope|.
  void addFactor(std::vector<VarId> Scope, std::vector<double> Table);

  /// Adds a soft predicate factor (paper Eq. 6): weight \p HighProb when
  /// \p Predicate holds of the assignment, 1 - HighProb otherwise.
  /// The assignment passed to the predicate is indexed like Scope.
  void addPredicateFactor(
      std::vector<VarId> Scope,
      const std::function<bool(const std::vector<bool> &)> &Predicate,
      double HighProb);

  /// Adds a soft equality factor between two variables.
  void addEqualityFactor(VarId A, VarId B, double HighProb);

  /// Sharpens/overrides the prior of a variable (used by summary
  /// application, which re-seeds interface nodes each iteration).
  void setPrior(VarId Var, double Prior);

  unsigned variableCount() const {
    return static_cast<unsigned>(Vars.size());
  }
  unsigned factorCount() const {
    return static_cast<unsigned>(Factors.size());
  }
  const Variable &variable(VarId Id) const { return Vars[Id]; }
  const Factor &factor(uint32_t Id) const { return Factors[Id]; }

  /// Flat CSR edge layout belief propagation runs on. One *edge* exists
  /// per (factor, scope slot) pair; its id is FactorOffset[F] + K, so
  /// each factor's slots are contiguous and a message array indexed by
  /// edge id needs no nested vectors. The variable-major view
  /// (VarOffset/VarEdges) lists each variable's edges sorted by edge id,
  /// i.e. by (factor, slot) — a fixed, allocation-independent order the
  /// determinism contract relies on.
  struct EdgeLayout {
    /// Factor-major: edges of factor F are [FactorOffset[F],
    /// FactorOffset[F+1]).
    std::vector<uint32_t> FactorOffset;
    /// Variable at each edge (the factor's scope, flattened).
    std::vector<VarId> EdgeVar;
    /// Owning factor of each edge.
    std::vector<uint32_t> EdgeFactor;
    /// Variable-major: edge ids adjacent to V are VarEdges[VarOffset[V]
    /// .. VarOffset[V+1]), ascending.
    std::vector<uint32_t> VarOffset;
    std::vector<uint32_t> VarEdges;
    /// Every factor table concatenated into one contiguous array:
    /// factor F's table occupies TableFlat[TableOffset[F] ..
    /// TableOffset[F] + 2^deg(F)). The kernels gather table entries
    /// from a single base pointer instead of chasing per-factor
    /// vectors; safe to cache because factor tables are immutable once
    /// added (setPrior does not touch them).
    std::vector<double> TableFlat;
    std::vector<uint32_t> TableOffset;
    /// Variable-major companion of VarEdges: VmFactor[I] =
    /// EdgeFactor[VarEdges[I]], one indexed load in the BP inner loops
    /// instead of two dependent ones.
    std::vector<uint32_t> VmFactor;
    uint32_t MaxVarDegree = 0;
    uint32_t MaxFactorDegree = 0;

    uint32_t edgeCount() const {
      return static_cast<uint32_t>(EdgeVar.size());
    }
    uint32_t varDegree(VarId V) const {
      return VarOffset[V + 1] - VarOffset[V];
    }
    uint32_t factorDegree(uint32_t F) const {
      return FactorOffset[F + 1] - FactorOffset[F];
    }
  };

  /// The CSR layout, built on first use and cached; adding a variable or
  /// factor invalidates it (setPrior does not). Not thread-safe: solvers
  /// sharing one graph across threads must touch it once up front.
  const EdgeLayout &edgeLayout() const;

  /// Unnormalized joint weight of a full assignment (priors included).
  double jointWeight(const std::vector<bool> &Assignment) const;

private:
  std::vector<Variable> Vars;
  std::vector<Factor> Factors;
  mutable EdgeLayout Layout;
  mutable bool LayoutValid = false;
};

/// Distance clampProb keeps every probability from 0 and 1.
inline constexpr double ProbEps = 1e-9;

/// Clamps a probability away from 0 and 1 so message products stay finite.
inline double clampProb(double P) {
  if (P < ProbEps)
    return ProbEps;
  if (P > 1.0 - ProbEps)
    return 1.0 - ProbEps;
  return P;
}

} // namespace anek

#endif // ANEK_FACTOR_FACTORGRAPH_H
