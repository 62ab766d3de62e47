//===- alias_test.cpp - buildPfg's local must-alias tracking --------------===//
//
// Paper Section 3.1 tracks permissions across reassignments of locals with
// a local must-alias analysis. buildPfg does that tracking in its node
// map: a copy shares its source's node; a call, an allocation or a field
// load gives its destination a fresh node; a forward join keeps the node
// every path agrees on and joins the rest. Each case checks which node
// feeds a call's argument split.
//
//===----------------------------------------------------------------------===//

#include "analysis/IrBuilder.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace anek;

namespace {

/// The helpers every case calls: `use` consumes its argument, `id` and
/// `step` return a fresh value. All are static, so a call site's only
/// object argument is ArgPre[0].
const char *const Helpers = R"mj(
  A f;
  static void use(A a) { }
  static A id(A a) { return a; }
  static A step(A a) { return a; }
)mj";

struct Built {
  std::unique_ptr<Program> Prog;
  Pfg G;
};

/// Builds the PFG of `m`, whose parameter list and body are \p Method.
Built build(const std::string &Method) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(
      std::string("class A {") + Helpers + "  void m" + Method + "\n}\n",
      Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  if (!Prog)
    return {};
  for (MethodDecl *M : Prog->methodsWithBodies())
    if (M->Name == "m") {
      Pfg G = buildPfg(lowerToIr(*M));
      return {std::move(Prog), std::move(G)};
    }
  ADD_FAILURE() << "method m not found";
  return {};
}

/// Index of the \p Nth call site (in PFG order) whose callee is \p Callee.
unsigned siteOf(const Pfg &G, const std::string &Callee, unsigned Nth = 0) {
  for (unsigned S = 0; S != G.CallSites.size(); ++S)
    if (G.CallSites[S].Callee && G.CallSites[S].Callee->Name == Callee &&
        Nth-- == 0)
      return S;
  ADD_FAILURE() << "no call site of " << Callee;
  return 0;
}

/// The node whose permission call site \p Site lends: the source of the
/// edge into the split above CallSites[Site].ArgPre[0].
PfgNodeId argSource(const Pfg &G, unsigned Site) {
  if (Site >= G.CallSites.size() || G.CallSites[Site].ArgPre.empty() ||
      G.CallSites[Site].ArgPre[0] == NoPfgNode) {
    ADD_FAILURE() << "call site " << Site << " has no object argument";
    return NoPfgNode;
  }
  const std::vector<PfgEdgeId> &IntoPre =
      G.inEdges(G.CallSites[Site].ArgPre[0]);
  EXPECT_EQ(IntoPre.size(), 1u);
  PfgNodeId Split = G.edge(IntoPre.front()).From;
  EXPECT_EQ(G.node(Split).Kind, PfgNodeKind::Split);
  const std::vector<PfgEdgeId> &IntoSplit = G.inEdges(Split);
  EXPECT_EQ(IntoSplit.size(), 1u);
  return G.edge(IntoSplit.front()).From;
}

/// Sources of the edges into \p Node, in edge order.
std::vector<PfgNodeId> sourcesOf(const Pfg &G, PfgNodeId Node) {
  std::vector<PfgNodeId> Out;
  for (PfgEdgeId E : G.inEdges(Node))
    Out.push_back(G.edge(E).From);
  return Out;
}

unsigned countNodes(const Pfg &G, PfgNodeKind Kind) {
  unsigned N = 0;
  for (PfgNodeId Id = 0; Id != G.nodeCount(); ++Id)
    N += G.node(Id).Kind == Kind;
  return N;
}

} // namespace

TEST(MustAliasTest, CopyCreatesAlias) {
  Built B = build("(A p) { A x = p; A y = x; use(y); }");
  EXPECT_EQ(argSource(B.G, siteOf(B.G, "use")), B.G.ParamPre[0]);
}

TEST(MustAliasTest, ParamsInitiallyDistinct) {
  Built B = build("(A p, A q) { use(p); use(q); }");
  ASSERT_EQ(B.G.ParamPre.size(), 2u);
  EXPECT_NE(B.G.ParamPre[0], B.G.ParamPre[1]);
  EXPECT_EQ(argSource(B.G, siteOf(B.G, "use", 0)), B.G.ParamPre[0]);
  EXPECT_EQ(argSource(B.G, siteOf(B.G, "use", 1)), B.G.ParamPre[1]);
}

TEST(MustAliasTest, CallKillsAlias) {
  Built B = build("(A p) { A x = p; x = id(p); use(x); }");
  PfgNodeId Source = argSource(B.G, siteOf(B.G, "use"));
  ASSERT_NE(Source, NoPfgNode);
  EXPECT_EQ(B.G.node(Source).Kind, PfgNodeKind::CallResult);
  EXPECT_EQ(B.G.node(Source).CallSite, siteOf(B.G, "id"));
}

TEST(MustAliasTest, FieldLoadIsFresh) {
  // Two separate loads of the same field are not must-aliases (a callee
  // could change the field in between): each gets its own source.
  Built B = build("() { A x = f; A y = f; use(x); use(y); }");
  PfgNodeId First = argSource(B.G, siteOf(B.G, "use", 0));
  PfgNodeId Second = argSource(B.G, siteOf(B.G, "use", 1));
  ASSERT_NE(First, NoPfgNode);
  ASSERT_NE(Second, NoPfgNode);
  EXPECT_EQ(B.G.node(First).Kind, PfgNodeKind::FieldRead);
  EXPECT_EQ(B.G.node(Second).Kind, PfgNodeKind::FieldRead);
  EXPECT_NE(First, Second);
}

TEST(MustAliasTest, JoinIntersects) {
  // After the branch, x may be p or q: it takes a join of both.
  Built B = build("(A p, A q, boolean b) { A x = p; if (b) { x = q; } "
                  "use(x); }");
  PfgNodeId Source = argSource(B.G, siteOf(B.G, "use"));
  ASSERT_NE(Source, NoPfgNode);
  EXPECT_EQ(B.G.node(Source).Kind, PfgNodeKind::Join);
  std::vector<PfgNodeId> In = sourcesOf(B.G, Source);
  ASSERT_EQ(In.size(), 2u);
  EXPECT_EQ(std::count(In.begin(), In.end(), B.G.ParamPre[0]), 1);
  EXPECT_EQ(std::count(In.begin(), In.end(), B.G.ParamPre[1]), 1);
}

TEST(MustAliasTest, JoinKeepsAgreement) {
  // Both paths leave x on p's node: no join is needed.
  Built B = build("(A p, boolean b) { A x = p; if (b) { x = p; } use(x); }");
  EXPECT_EQ(argSource(B.G, siteOf(B.G, "use")), B.G.ParamPre[0]);
  EXPECT_EQ(countNodes(B.G, PfgNodeKind::Join), 0u);
}

TEST(MustAliasTest, LoopReassignmentKills) {
  // At the loop head, cur may have been reassigned along the back edge:
  // its head join is fed by step's result as well as by p.
  Built B = build("(A p) { A cur = p; while (cur != null) { cur = step(cur); "
                  "} use(cur); }");
  PfgNodeId Head = argSource(B.G, siteOf(B.G, "use"));
  ASSERT_NE(Head, NoPfgNode);
  EXPECT_EQ(B.G.node(Head).Kind, PfgNodeKind::Join);
  std::vector<PfgNodeId> In = sourcesOf(B.G, Head);
  ASSERT_EQ(In.size(), 2u);
  EXPECT_EQ(In[0], B.G.ParamPre[0]);
  EXPECT_EQ(B.G.node(In[1]).Kind, PfgNodeKind::CallResult);
  EXPECT_EQ(B.G.node(In[1]).CallSite, siteOf(B.G, "step"));
}

TEST(MustAliasTest, LoopInvariantSurvives) {
  // x is untouched by the loop: its head join has no back edge, so p's
  // node is its only source.
  Built B = build("(A p, int k) { A x = p; while (k > 0) { k = k - 1; } "
                  "use(x); }");
  PfgNodeId Head = argSource(B.G, siteOf(B.G, "use"));
  ASSERT_NE(Head, NoPfgNode);
  EXPECT_EQ(B.G.node(Head).Kind, PfgNodeKind::Join);
  EXPECT_EQ(sourcesOf(B.G, Head), std::vector<PfgNodeId>{B.G.ParamPre[0]});
}

TEST(MustAliasTest, MidBlockQuery) {
  // Before the reassignment x lends p's permission, after it q's.
  Built B = build("(A p, A q) { A x = p; use(x); x = q; use(x); }");
  EXPECT_EQ(argSource(B.G, siteOf(B.G, "use", 0)), B.G.ParamPre[0]);
  EXPECT_EQ(argSource(B.G, siteOf(B.G, "use", 1)), B.G.ParamPre[1]);
}
