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
/// Factors are stored once, in the factor-major half of the flat CSR
/// layout (EdgeLayout) belief propagation reads; factor() views them
/// there.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_FACTORGRAPH_H
#define ANEK_FACTOR_FACTORGRAPH_H

#include <cstdint>
#include <functional>
#include <span>
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

  /// One factor, viewed in the layout's factor-major arrays: a
  /// non-negative table over the joint assignments of its scope. Table
  /// index encoding: bit i set <=> Scope[i] is true. The spans stay
  /// valid until the next addFactor.
  struct Factor {
    std::span<const VarId> Scope;
    std::span<const double> Table;
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
    return static_cast<unsigned>(Layout.TableOffset.size());
  }
  const Variable &variable(VarId Id) const { return Vars[Id]; }
  Factor factor(uint32_t Id) const {
    const uint32_t Deg = Layout.factorDegree(Id);
    return {{Layout.EdgeVar.data() + Layout.FactorOffset[Id], Deg},
            {Layout.TableFlat.data() + Layout.TableOffset[Id],
             size_t{1} << Deg}};
  }

  /// Flat CSR edge layout belief propagation runs on. One *edge* exists
  /// per (factor, scope slot) pair; its id is FactorOffset[F] + K, so
  /// each factor's slots are contiguous and a message array indexed by
  /// edge id needs no nested vectors. The factor-major half is the
  /// graph's factor store: addFactor appends to it. The variable-major
  /// half (VarOffset/VarEdges/VmFactor) is built on first use and lists
  /// each variable's edges sorted by edge id, i.e. by (factor, slot) — a
  /// fixed, allocation-independent order the determinism contract
  /// relies on.
  struct EdgeLayout {
    /// Factor-major: edges of factor F are [FactorOffset[F],
    /// FactorOffset[F+1]), so it holds factorCount() + 1 entries.
    std::vector<uint32_t> FactorOffset = {0};
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
    /// TableOffset[F] + 2^deg(F)). Tables are immutable once added
    /// (setPrior does not touch them).
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

  /// The CSR layout; its variable-major half is built on first use and
  /// cached, and adding a variable or factor invalidates it (setPrior
  /// does not). Not thread-safe: solvers sharing one graph across
  /// threads must touch it once up front.
  const EdgeLayout &edgeLayout() const;

  /// Unnormalized joint weight of a full assignment (priors included).
  double jointWeight(const std::vector<bool> &Assignment) const;

private:
  std::vector<Variable> Vars;
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
