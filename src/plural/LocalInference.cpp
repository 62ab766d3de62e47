//===- LocalInference.cpp - PLURAL's local fraction inference --------------===//

#include "plural/LocalInference.h"

#include "plural/GaussianElim.h"

using namespace anek;

LocalInferenceResult anek::runLocalInference(const Pfg &G) {
  LocalInferenceResult Result;
  const unsigned NumEdges = G.edgeCount();
  Result.NumVariables = NumEdges;
  LinearSystem System(NumEdges);

  for (PfgNodeId N = 0; N != G.nodeCount(); ++N) {
    const std::vector<PfgEdgeId> &In = G.inEdges(N);
    const std::vector<PfgEdgeId> &Out = G.outEdges(N);
    const PfgNodeKind Kind = G.node(N).Kind;

    // Sources supply one whole permission to their outgoing flow.
    bool IsSource = Kind == PfgNodeKind::ParamPre ||
                    Kind == PfgNodeKind::NewObject ||
                    Kind == PfgNodeKind::FieldRead ||
                    Kind == PfgNodeKind::CallResult ||
                    Kind == PfgNodeKind::Unknown;
    if (IsSource && !Out.empty()) {
      std::vector<std::pair<unsigned, Rational>> Terms;
      for (PfgEdgeId E : Out)
        Terms.push_back({E, Rational(1)});
      System.addEquation(Terms, Rational(1));
      continue;
    }

    // Splits divide their input evenly across the outgoing edges (the
    // canonical half-and-half split of fractional permissions).
    if (Kind == PfgNodeKind::Split && !In.empty() && Out.size() >= 2) {
      // Conservation: sum(out) = sum(in).
      std::vector<std::pair<unsigned, Rational>> Terms;
      for (PfgEdgeId E : Out)
        Terms.push_back({E, Rational(1)});
      for (PfgEdgeId E : In)
        Terms.push_back({E, Rational(-1)});
      System.addEquation(Terms, Rational(0));
      // Even division: every pair of outgoing edges carries equal flow.
      for (size_t I = 1; I != Out.size(); ++I)
        System.addEquation(
            {{Out[0], Rational(1)}, {Out[I], Rational(-1)}}, Rational(0));
      continue;
    }

    // Call pre/post pairing: the callee returns what it borrowed. The
    // builder guarantees a CallPre has exactly one incoming edge and the
    // matching CallPost one outgoing edge; equate them via the call site.
    if (Kind == PfgNodeKind::CallPre && In.size() == 1) {
      // Locate the matching post node through the call-site record.
      const PfgNode &Node = G.node(N);
      if (Node.CallSite < G.CallSites.size()) {
        const PfgCallSite &Site = G.CallSites[Node.CallSite];
        PfgNodeId Post = NoPfgNode;
        if (Node.Target.Kind == SpecTargetKind::Receiver)
          Post = Site.RecvPost;
        else if (Node.Target.ParamIndex < Site.ArgPost.size())
          Post = Site.ArgPost[Node.Target.ParamIndex];
        if (Post != NoPfgNode && G.outEdges(Post).size() == 1)
          System.addEquation({{In[0], Rational(1)},
                              {G.outEdges(Post)[0], Rational(-1)}},
                             Rational(0));
      }
      continue;
    }
    if (Kind == PfgNodeKind::CallPost)
      continue; // Handled via its CallPre partner.

    // Interior conservation: flow in equals flow out (merges, joins).
    if (!In.empty() && !Out.empty()) {
      std::vector<std::pair<unsigned, Rational>> Terms;
      for (PfgEdgeId E : Out)
        Terms.push_back({E, Rational(1)});
      for (PfgEdgeId E : In)
        Terms.push_back({E, Rational(-1)});
      System.addEquation(Terms, Rational(0));
    }
  }

  Result.NumEquations = System.equationCount();
  std::optional<std::vector<Rational>> Solution =
      std::move(System).solve(&Result.EliminationOps);
  if (!Solution)
    return Result;
  Result.Consistent = true;
  Result.EdgeFractions = std::move(*Solution);
  Result.InRange = true;
  for (const Rational &F : Result.EdgeFractions)
    if (F.isNegative() || F > Rational(1))
      Result.InRange = false;
  return Result;
}
