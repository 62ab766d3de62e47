//===- VarMap.cpp - Random variables for PFG nodes and edges ---------------===//

#include "constraints/VarMap.h"

#include <cassert>

using namespace anek;

static PermVars makeVars(FactorGraph &G, TypeDecl *Class) {
  PermVars Vars;
  for (PermKind Kind : AllPermKinds)
    Vars.Kind[static_cast<unsigned>(Kind)] = G.addVariable(0.5);
  if (Class)
    for (unsigned I = 0, E = Class->States.size(); I != E; ++I)
      Vars.State.push_back(G.addVariable(0.5));
  return Vars;
}

PfgVarMap::PfgVarMap(const Pfg &P, FactorGraph &G) {
  NodeVars.reserve(P.nodeCount());
  for (PfgNodeId Id = 0; Id != P.nodeCount(); ++Id)
    NodeVars.push_back(makeVars(G, P.node(Id).Class));
  EdgeVars.reserve(P.edgeCount());
  for (PfgEdgeId Id = 0; Id != P.edgeCount(); ++Id) {
    // An edge ranges over the state space of its source node's class.
    TypeDecl *Class = P.node(P.edge(Id).From).Class;
    if (!Class)
      Class = P.node(P.edge(Id).To).Class;
    EdgeVars.push_back(makeVars(G, Class));
  }
}

void anek::setSpecPriors(FactorGraph &G, const PermVars &Vars,
                         const std::vector<std::string> &States,
                         const std::optional<PermState> &PS, double Hi,
                         double Lo) {
  if (!PS)
    return;
  for (PermKind Kind : AllPermKinds)
    G.setPrior(Vars.Kind[static_cast<unsigned>(Kind)],
               Kind == PS->Kind ? Hi : Lo);
  // An empty state means ALIVE, the root.
  const std::string &Wanted =
      PS->State.empty() ? std::string(AliveStateName) : PS->State;
  for (size_t I = 0, E = Vars.State.size(); I != E; ++I) {
    assert(I < States.size() && "state list shorter than variables");
    G.setPrior(Vars.State[I], States[I] == Wanted ? Hi : Lo);
  }
}

void anek::setMarginalPriors(FactorGraph &G, const PermVars &Vars,
                             std::span<const double> Marginals) {
  size_t Index = 0;
  for (PermKind Kind : AllPermKinds) {
    if (Index >= Marginals.size())
      return;
    G.setPrior(Vars.Kind[static_cast<unsigned>(Kind)], Marginals[Index++]);
  }
  for (VarId State : Vars.State) {
    if (Index >= Marginals.size())
      return;
    G.setPrior(State, Marginals[Index++]);
  }
}

std::vector<double> anek::readMarginals(const PermVars &Vars,
                                        const std::vector<double> &Solution) {
  std::vector<double> Out;
  Out.reserve(NumPermKinds + Vars.State.size());
  for (PermKind Kind : AllPermKinds)
    Out.push_back(Solution[Vars.Kind[static_cast<unsigned>(Kind)]]);
  for (VarId State : Vars.State)
    Out.push_back(Solution[State]);
  return Out;
}
