//===- CallGraph.h - Static call graph over a Program ------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static call graph used to order ANEK-INFER's worklist (callees
/// before callers, so summaries exist before they are consumed) and by the
/// corpus statistics. Edges follow Sema's resolved call targets; dynamic
/// dispatch is approximated by the statically resolved method, exactly as
/// the paper's modular analysis does.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_ANALYSIS_CALLGRAPH_H
#define ANEK_ANALYSIS_CALLGRAPH_H

#include "lang/Ast.h"

#include <map>
#include <vector>

namespace anek {

/// Call graph over all methods of a program.
class CallGraph {
public:
  explicit CallGraph(const Program &Prog);

  /// Methods \p Caller may invoke (deduplicated, deterministic order).
  const std::vector<MethodDecl *> &callees(const MethodDecl *Caller) const;

  /// Methods that may invoke \p Callee.
  const std::vector<MethodDecl *> &callers(const MethodDecl *Callee) const;

  /// Condenses the call graph into strongly connected components and
  /// returns the methods with bodies grouped into reverse-topological
  /// *waves*: wave 0 holds the SCCs that call no other bodied SCC, wave
  /// k+1 the SCCs whose deepest bodied callee SCC sits in wave k. Two
  /// methods in the same wave never call one another unless they share an
  /// SCC (mutual recursion), so a wave's members can be analyzed from the
  /// same summary snapshot — this is the parallel scheduler's unit of
  /// concurrency. Within a wave, methods appear in declaration order;
  /// the result is fully deterministic.
  std::vector<std::vector<MethodDecl *>> sccWaves() const;

  /// One strongly connected component of the condensation, as produced by
  /// sccGroups(). Members are in declaration order; CalleeGroups holds the
  /// ids (indices into the sccGroups() result) of the distinct components
  /// this one calls into, ascending, self excluded.
  struct SccGroup {
    std::vector<MethodDecl *> Members;
    std::vector<unsigned> CalleeGroups;
  };

  /// The SCC condensation itself, in reverse topological order: a callee
  /// component always has a smaller index than any caller component, so a
  /// single ascending pass sees every dependency before its dependents.
  /// Unlike sccWaves() this includes bodiless components (interface
  /// methods), because the incremental cache hashes signatures too.
  std::vector<SccGroup> sccGroups() const;

  /// Number of call edges (for statistics).
  unsigned edgeCount() const { return NumEdges; }

private:
  /// Iterative Tarjan over callee edges: assigns every method a component
  /// id in reverse topological order (callees' SCCs get smaller ids) and
  /// returns the number of components. Deterministic because AllMethods
  /// and each callees() vector are in declaration/scan order.
  unsigned computeSccs(std::map<const MethodDecl *, unsigned> &SccOf) const;

  void addEdge(MethodDecl *Caller, MethodDecl *Callee);
  void scanExpr(MethodDecl *Caller, const Expr *E);
  void scanStmt(MethodDecl *Caller, const Stmt *S);

  std::vector<MethodDecl *> AllMethods;
  std::map<const MethodDecl *, std::vector<MethodDecl *>> Callees;
  std::map<const MethodDecl *, std::vector<MethodDecl *>> Callers;
  unsigned NumEdges = 0;
};

} // namespace anek

#endif // ANEK_ANALYSIS_CALLGRAPH_H
