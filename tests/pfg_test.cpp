//===- pfg_test.cpp - Unit tests for the Permissions Flow Graph ------------===//

#include "analysis/IrBuilder.h"
#include "corpus/ExampleSources.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"

#include <gtest/gtest.h>

using namespace anek;

namespace {

struct Built {
  std::unique_ptr<Program> Prog;
  MethodIr Ir;
  Pfg G;
};

Built build(const std::string &Source, const std::string &Method) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  for (MethodDecl *M : Prog->methodsWithBodies())
    if (M->Name == Method) {
      MethodIr Ir = lowerToIr(*M);
      Pfg G = buildPfg(Ir);
      return {std::move(Prog), std::move(Ir), std::move(G)};
    }
  ADD_FAILURE() << "method not found";
  return {};
}

unsigned countNodes(const Pfg &G, PfgNodeKind Kind) {
  unsigned N = 0;
  for (PfgNodeId Id = 0; Id != G.nodeCount(); ++Id)
    N += G.node(Id).Kind == Kind;
  return N;
}

} // namespace

TEST(PfgTest, InterfaceNodes) {
  Built B = build("class A { A m(A p, int k) { return p; } }", "m");
  EXPECT_NE(B.G.ReceiverPre, NoPfgNode);
  EXPECT_NE(B.G.ReceiverPost, NoPfgNode);
  ASSERT_EQ(B.G.ParamPre.size(), 2u);
  EXPECT_NE(B.G.ParamPre[0], NoPfgNode);
  EXPECT_EQ(B.G.ParamPre[1], NoPfgNode); // int param: no permission.
  EXPECT_NE(B.G.ResultNode, NoPfgNode);
  // `return p`: the param flows to the result.
  bool Found = false;
  for (PfgEdgeId E = 0; E != B.G.edgeCount(); ++E)
    Found |= B.G.edge(E).From == B.G.ParamPre[0] &&
             B.G.edge(E).To == B.G.ResultNode;
  EXPECT_TRUE(Found);
}

/// Figure 6: the PFG of the copy method.
TEST(PfgTest, CopyMethodMatchesFigure6) {
  Built B = build(iteratorApiSource() + spreadsheetSource(), "copy");

  // One call site per call in the body: createColIter, hasNext, next,
  // add, plus the Row constructor.
  ASSERT_EQ(B.G.CallSites.size(), 5u);

  // The original parameter: PRE -> split -> {callee pre, merge};
  // callee post -> merge (the left side of Figure 6).
  const PfgCallSite &CreateSite = B.G.CallSites[0];
  EXPECT_EQ(CreateSite.Callee->Name, "createColIter");
  ASSERT_NE(CreateSite.RecvPre, NoPfgNode);
  PfgNodeId ParamPre = B.G.ParamPre[0];
  ASSERT_EQ(B.G.outEdges(ParamPre).size(), 1u);
  PfgNodeId Split = B.G.edge(B.G.outEdges(ParamPre)[0]).To;
  EXPECT_EQ(B.G.node(Split).Kind, PfgNodeKind::Split);
  // The split reaches both the callee pre node and a merge node.
  bool ToPre = false, ToMerge = false;
  for (PfgEdgeId E : B.G.outEdges(Split)) {
    ToPre |= B.G.edge(E).To == CreateSite.RecvPre;
    ToMerge |= B.G.node(B.G.edge(E).To).Kind == PfgNodeKind::Merge;
    if (B.G.node(B.G.edge(E).To).Kind == PfgNodeKind::Merge) {
      EXPECT_TRUE(B.G.edge(E).StateOpaque);
    }
  }
  EXPECT_TRUE(ToPre);
  EXPECT_TRUE(ToMerge);

  // The loop: the iterator's permission joins with the back edge.
  EXPECT_GE(countNodes(B.G, PfgNodeKind::Join), 1u);

  // The constructor of Row produces a NewObject node.
  EXPECT_EQ(countNodes(B.G, PfgNodeKind::NewObject), 1u);

  // The iterator result node feeds the loop.
  ASSERT_NE(CreateSite.Result, NoPfgNode);
  EXPECT_EQ(B.G.node(CreateSite.Result).Kind, PfgNodeKind::CallResult);
  EXPECT_FALSE(B.G.outEdges(CreateSite.Result).empty());
}

/// Figure 7: field access nodes keep a (dotted) receiver link.
TEST(PfgTest, FieldNodesMatchFigure7) {
  Built B = build(fieldExampleSource(), "accessFields");
  unsigned Writes = countNodes(B.G, PfgNodeKind::FieldWrite);
  unsigned Reads = countNodes(B.G, PfgNodeKind::FieldRead);
  EXPECT_EQ(Writes, 1u);
  EXPECT_EQ(Reads, 1u);
  for (PfgNodeId Id = 0; Id != B.G.nodeCount(); ++Id) {
    const PfgNode &N = B.G.node(Id);
    if (N.Kind == PfgNodeKind::FieldWrite ||
        N.Kind == PfgNodeKind::FieldRead) {
      EXPECT_EQ(N.FieldName, "f");
      ASSERT_NE(N.ReceiverNode, NoPfgNode);
      // The receiver is the parameter o's current node.
      EXPECT_EQ(B.G.node(N.ReceiverNode).Kind, PfgNodeKind::ParamPre);
    }
  }
  // new Object() -> split -> {fieldwrite, retained}.
  EXPECT_EQ(countNodes(B.G, PfgNodeKind::NewObject), 1u);
  EXPECT_GE(countNodes(B.G, PfgNodeKind::Split), 1u);
}

TEST(PfgTest, SyncTargetsRecorded) {
  Built B = build(
      "class A { void m(A o) { synchronized (o) { } } }", "m");
  ASSERT_EQ(B.G.SyncTargets.size(), 1u);
  EXPECT_EQ(B.G.SyncTargets[0], B.G.ParamPre[0]);
}

TEST(PfgTest, BranchesShareSourceNode) {
  Built B = build(R"mj(
class A {
  void use(A x) { }
  void m(A p, boolean b) {
    if (b) { use(p); } else { use(p); }
  }
}
)mj",
                  "m");
  // PRE p has one outgoing edge per branch use (a "branch node").
  EXPECT_EQ(B.G.outEdges(B.G.ParamPre[0]).size(), 2u);
  // Both branches rejoin into a Join before POST.
  EXPECT_GE(countNodes(B.G, PfgNodeKind::Join), 1u);
  EXPECT_FALSE(B.G.inEdges(B.G.ParamPost[0]).empty());
}

TEST(PfgTest, UnknownSourceForUntrackedValues) {
  // `x` is declared but never initialized: its first use creates an
  // Unknown permission source.
  Built B = build(R"mj(
class A {
  A id(A x) { return x; }
  void m() {
    A x;
    A y = id(x);
  }
}
)mj",
                  "m");
  EXPECT_GE(countNodes(B.G, PfgNodeKind::Unknown), 1u);
}

TEST(PfgTest, CtorSiteRecordsResult) {
  Built B = build("class A { A m() { return new A(); } }", "m");
  ASSERT_EQ(B.G.CallSites.size(), 1u);
  EXPECT_TRUE(B.G.CallSites[0].IsCtor);
  ASSERT_NE(B.G.CallSites[0].Result, NoPfgNode);
  EXPECT_EQ(B.G.node(B.G.CallSites[0].Result).Kind,
            PfgNodeKind::NewObject);
}

TEST(PfgTest, StatesOfUsesClassSpace) {
  Built B = build(iteratorApiSource() + R"mj(
class C {
  int take(Iterator<Integer> it) { return it.next(); }
}
)mj",
                  "take");
  std::vector<std::string> States = B.G.statesOf(B.G.ParamPre[0]);
  ASSERT_EQ(States.size(), 3u);
  EXPECT_EQ(States[0], "ALIVE");
  EXPECT_EQ(States[1], "HASNEXT");
}

TEST(PfgTest, DotOutputWellFormed) {
  Built B = build(iteratorApiSource() + spreadsheetSource(), "copy");
  std::string Dot = B.G.dot();
  EXPECT_NE(Dot.find("digraph pfg {"), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
  // Field-access graphs render the dotted receiver links of Figure 7.
  Built F = build(fieldExampleSource(), "accessFields");
  EXPECT_NE(F.G.dot().find("style=dotted"), std::string::npos);
}

TEST(PfgTest, NoDanglingEdges) {
  Built B = build(iteratorApiSource() + spreadsheetSource(), "copy");
  for (PfgEdgeId E = 0; E != B.G.edgeCount(); ++E) {
    EXPECT_LT(B.G.edge(E).From, B.G.nodeCount());
    EXPECT_LT(B.G.edge(E).To, B.G.nodeCount());
  }
  // In/out adjacency agrees with the edge list.
  unsigned TotalOut = 0, TotalIn = 0;
  for (PfgNodeId N = 0; N != B.G.nodeCount(); ++N) {
    TotalOut += static_cast<unsigned>(B.G.outEdges(N).size());
    TotalIn += static_cast<unsigned>(B.G.inEdges(N).size());
  }
  EXPECT_EQ(TotalOut, B.G.edgeCount());
  EXPECT_EQ(TotalIn, B.G.edgeCount());
}
