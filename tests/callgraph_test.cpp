//===- callgraph_test.cpp - Unit tests for the call graph ------------------===//

#include "analysis/CallGraph.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace anek;

namespace {

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

MethodDecl *method(Program &Prog, const std::string &Class,
                   const std::string &Name) {
  for (auto &M : Prog.findType(Class)->Methods)
    if (M->Name == Name)
      return M.get();
  ADD_FAILURE() << Class << "." << Name << " not found";
  return nullptr;
}

} // namespace

TEST(CallGraphTest, DirectEdges) {
  auto Prog = analyze(R"mj(
class A {
  void caller() { callee(); callee(); }
  void callee() { }
}
)mj");
  CallGraph CG(*Prog);
  MethodDecl *Caller = method(*Prog, "A", "caller");
  MethodDecl *Callee = method(*Prog, "A", "callee");
  ASSERT_EQ(CG.callees(Caller).size(), 1u); // Deduplicated.
  EXPECT_EQ(CG.callees(Caller)[0], Callee);
  ASSERT_EQ(CG.callers(Callee).size(), 1u);
  EXPECT_EQ(CG.callers(Callee)[0], Caller);
  EXPECT_EQ(CG.edgeCount(), 1u);
}

TEST(CallGraphTest, ConstructorEdges) {
  auto Prog = analyze(R"mj(
class A {
  A(int x) { }
  static A make() { return new A(1); }
}
)mj");
  CallGraph CG(*Prog);
  MethodDecl *Make = method(*Prog, "A", "make");
  ASSERT_EQ(CG.callees(Make).size(), 1u);
  EXPECT_TRUE(CG.callees(Make)[0]->IsCtor);
}

TEST(CallGraphTest, EdgesInsideAllExprPositions) {
  auto Prog = analyze(R"mj(
class A {
  int f() { return 1; }
  void m(int k) {
    int a = f() + f();
    if (f() > 0) { k = f(); }
    while (f() < k) { k = k - 1; }
    assert f() == 1;
  }
}
)mj");
  CallGraph CG(*Prog);
  EXPECT_EQ(CG.callees(method(*Prog, "A", "m")).size(), 1u);
}

namespace {

/// Wave index of \p M inside \p Waves, or ~0u when absent.
unsigned waveOf(const std::vector<std::vector<MethodDecl *>> &Waves,
                const MethodDecl *M) {
  for (unsigned W = 0; W != Waves.size(); ++W)
    for (const MethodDecl *Member : Waves[W])
      if (Member == M)
        return W;
  return ~0u;
}

} // namespace

TEST(CallGraphTest, SccWavesOrderCalleesFirst) {
  auto Prog = analyze(R"mj(
class A {
  void top() { mid(); }
  void mid() { bottom(); }
  void bottom() { }
  void lonely() { }
}
)mj");
  CallGraph CG(*Prog);
  auto Waves = CG.sccWaves();
  ASSERT_EQ(Waves.size(), 3u);
  EXPECT_EQ(waveOf(Waves, method(*Prog, "A", "bottom")), 0u);
  EXPECT_EQ(waveOf(Waves, method(*Prog, "A", "lonely")), 0u);
  EXPECT_EQ(waveOf(Waves, method(*Prog, "A", "mid")), 1u);
  EXPECT_EQ(waveOf(Waves, method(*Prog, "A", "top")), 2u);
}

TEST(CallGraphTest, SccWavesGroupMutualRecursion) {
  auto Prog = analyze(R"mj(
class A {
  void even(int n) { odd(n - 1); }
  void odd(int n) { even(n - 1); }
  void driver(int n) { even(n); }
}
)mj");
  CallGraph CG(*Prog);
  auto Waves = CG.sccWaves();
  ASSERT_EQ(Waves.size(), 2u);
  // The even/odd cycle is one SCC: same wave despite the mutual calls.
  EXPECT_EQ(waveOf(Waves, method(*Prog, "A", "even")), 0u);
  EXPECT_EQ(waveOf(Waves, method(*Prog, "A", "odd")), 0u);
  EXPECT_EQ(waveOf(Waves, method(*Prog, "A", "driver")), 1u);
}

TEST(CallGraphTest, SccWavesMembersNeverCallAcrossOneWave) {
  // The scheduler's safety property: two methods in the same wave only
  // call each other when they share an SCC.
  auto Prog = analyze(R"mj(
class A {
  void a() { b(); c(); }
  void b() { d(); }
  void c() { }
  void d() { c(); }
}
)mj");
  CallGraph CG(*Prog);
  auto Waves = CG.sccWaves();
  for (const auto &Wave : Waves) {
    ASSERT_FALSE(Wave.empty());
    for (MethodDecl *M : Wave)
      for (MethodDecl *Callee : CG.callees(M))
        if (Callee->Body && Callee != M) {
          EXPECT_NE(waveOf(Waves, Callee), waveOf(Waves, M))
              << M->Name << " and callee " << Callee->Name
              << " share a wave without sharing an SCC";
        }
  }
}

TEST(CallGraphTest, SccWavesSkipBodilessMethods) {
  auto Prog = analyze(R"mj(
interface I { void api(); }
class A { void m(I i) { i.api(); } }
)mj");
  CallGraph CG(*Prog);
  auto Waves = CG.sccWaves();
  // The bodiless API method neither appears in a wave nor pushes its
  // caller out of wave 0.
  ASSERT_EQ(Waves.size(), 1u);
  ASSERT_EQ(Waves[0].size(), 1u);
  EXPECT_EQ(Waves[0][0]->Name, "m");
  // The edge itself is still recorded.
  EXPECT_EQ(CG.callees(method(*Prog, "A", "m")).size(), 1u);
}

TEST(CallGraphTest, SccWavesAreInDeclarationOrder) {
  auto Prog = analyze(R"mj(
class A { void a2() { } void a1() { } }
class B { void b1() { } }
)mj");
  CallGraph CG(*Prog);
  auto Waves = CG.sccWaves();
  ASSERT_EQ(Waves.size(), 1u);
  ASSERT_EQ(Waves[0].size(), 3u);
  EXPECT_EQ(Waves[0][0], method(*Prog, "A", "a2"));
  EXPECT_EQ(Waves[0][1], method(*Prog, "A", "a1"));
  EXPECT_EQ(Waves[0][2], method(*Prog, "B", "b1"));
}
