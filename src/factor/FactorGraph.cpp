//===- FactorGraph.cpp - Boolean factor graphs -----------------------------===//

#include "factor/FactorGraph.h"

#include "support/FaultInject.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace anek;

VarId FactorGraph::addVariable(double Prior) {
  // Fault 'alloc-perturb': interleave an unconnected padding variable so
  // every subsequent VarId shifts. Marginals of real variables must be
  // unaffected — any result change under this fault is an allocation-order
  // dependence bug somewhere in the stack.
  if (faults::anyActive() && faults::active(FaultKind::AllocPerturb) &&
      (Vars.size() & 1) == 0) {
    Vars.push_back({0.5});
  }
  Vars.push_back({clampProb(Prior)});
  LayoutValid = false;
  return static_cast<VarId>(Vars.size() - 1);
}

void FactorGraph::addFactor(std::vector<VarId> Scope,
                            std::vector<double> Table) {
  assert(!Scope.empty() && "factor with empty scope");
  assert(Scope.size() <= MaxScope && "factor scope too large");
  assert(Table.size() == (size_t{1} << Scope.size()) &&
         "table size must be 2^|scope|");
#ifndef NDEBUG
  for (VarId V : Scope)
    assert(V < Vars.size() && "factor names unknown variable");
  for (double W : Table)
    assert(W >= 0.0 && "negative factor weight");
#endif
  // The total stays below 2^31 entries so a 32-bit table offset plus an
  // index into that table cannot wrap.
  assert(Layout.TableFlat.size() + Table.size() < (size_t{1} << 31) &&
         "flattened factor tables exceed 32-bit gather indexing");
  const uint32_t F = factorCount();
  Layout.TableOffset.push_back(static_cast<uint32_t>(Layout.TableFlat.size()));
  Layout.TableFlat.insert(Layout.TableFlat.end(), Table.begin(), Table.end());
  Layout.EdgeVar.insert(Layout.EdgeVar.end(), Scope.begin(), Scope.end());
  Layout.EdgeFactor.resize(Layout.EdgeVar.size(), F);
  Layout.FactorOffset.push_back(Layout.edgeCount());
  Layout.MaxFactorDegree = std::max(Layout.MaxFactorDegree,
                                    static_cast<uint32_t>(Scope.size()));
  LayoutValid = false;
}

void FactorGraph::addPredicateFactor(
    std::vector<VarId> Scope,
    const std::function<bool(const std::vector<bool> &)> &Predicate,
    double HighProb) {
  assert(Scope.size() <= MaxScope && "factor scope too large");
  const size_t N = Scope.size();
  std::vector<double> Table(size_t{1} << N);
  std::vector<bool> Assignment(N);
  double Hi = clampProb(HighProb);
  for (size_t Index = 0; Index != Table.size(); ++Index) {
    for (size_t Bit = 0; Bit != N; ++Bit)
      Assignment[Bit] = (Index >> Bit) & 1;
    Table[Index] = Predicate(Assignment) ? Hi : 1.0 - Hi;
  }
  addFactor(std::move(Scope), std::move(Table));
}

void FactorGraph::addEqualityFactor(VarId A, VarId B, double HighProb) {
  double Hi = clampProb(HighProb);
  double Lo = 1.0 - Hi;
  // Index bit 0 = A, bit 1 = B.
  addFactor({A, B}, {Hi, Lo, Lo, Hi});
}

void FactorGraph::setPrior(VarId Var, double Prior) {
  assert(Var < Vars.size() && "unknown variable");
  Vars[Var].Prior = clampProb(Prior);
}

const FactorGraph::EdgeLayout &FactorGraph::edgeLayout() const {
  if (LayoutValid)
    return Layout;
  const uint32_t NumVars = static_cast<uint32_t>(Vars.size());
  const uint32_t NumEdges = Layout.edgeCount();

  // Variable-major CSR by counting sort: edge ids land in ascending
  // order within each variable because the fill walks edges in order.
  Layout.VarOffset.assign(NumVars + 1, 0);
  for (uint32_t E = 0; E != NumEdges; ++E)
    ++Layout.VarOffset[Layout.EdgeVar[E] + 1];
  Layout.MaxVarDegree = 0;
  for (uint32_t V = 0; V != NumVars; ++V) {
    Layout.MaxVarDegree = std::max(Layout.MaxVarDegree,
                                   Layout.VarOffset[V + 1]);
    Layout.VarOffset[V + 1] += Layout.VarOffset[V];
  }
  Layout.VarEdges.resize(NumEdges);
  std::vector<uint32_t> Cursor(Layout.VarOffset.begin(),
                               Layout.VarOffset.end() - 1);
  for (uint32_t E = 0; E != NumEdges; ++E)
    Layout.VarEdges[Cursor[Layout.EdgeVar[E]]++] = E;

  Layout.VmFactor.resize(NumEdges);
  for (uint32_t I = 0; I != NumEdges; ++I)
    Layout.VmFactor[I] = Layout.EdgeFactor[Layout.VarEdges[I]];

  LayoutValid = true;
  return Layout;
}

double FactorGraph::jointWeight(const std::vector<bool> &Assignment) const {
  assert(Assignment.size() == Vars.size() && "assignment size mismatch");
  double Weight = 1.0;
  for (size_t V = 0; V != Vars.size(); ++V)
    Weight *= Assignment[V] ? Vars[V].Prior : 1.0 - Vars[V].Prior;
  for (uint32_t Id = 0; Id != factorCount(); ++Id) {
    const Factor F = factor(Id);
    size_t Index = 0;
    for (size_t Bit = 0; Bit != F.Scope.size(); ++Bit)
      if (Assignment[F.Scope[Bit]])
        Index |= size_t{1} << Bit;
    Weight *= F.Table[Index];
  }
  return Weight;
}
