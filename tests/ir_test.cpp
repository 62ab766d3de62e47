//===- ir_test.cpp - Unit tests for AST-to-IR lowering ---------------------===//

#include "analysis/IrBuilder.h"
#include "corpus/ExampleSources.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace anek;

namespace {

struct Lowered {
  std::unique_ptr<Program> Prog;
  MethodIr Ir;
};

Lowered lower(const std::string &Source, const std::string &Method) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  for (MethodDecl *M : Prog->methodsWithBodies())
    if (M->Name == Method)
      return {std::move(Prog), lowerToIr(*M)};
  ADD_FAILURE() << "method not found: " << Method;
  return {std::move(Prog), MethodIr()};
}

unsigned countActions(const MethodIr &Ir, ActionKind Kind) {
  unsigned N = 0;
  for (const BasicBlock &B : Ir.Blocks)
    for (const Action &A : B.Actions)
      N += A.Kind == Kind;
  return N;
}

} // namespace

TEST(IrTest, ReceiverAndParams) {
  auto L = lower("class A { void m(A a, int k) { } }", "m");
  EXPECT_NE(L.Ir.ReceiverLocal, NoLocal);
  ASSERT_EQ(L.Ir.ParamLocals.size(), 2u);
  EXPECT_EQ(L.Ir.Locals[L.Ir.ReceiverLocal].Kind, LocalKind::Receiver);
  EXPECT_NE(L.Ir.Locals[L.Ir.ParamLocals[0]].Class, nullptr);
  EXPECT_EQ(L.Ir.Locals[L.Ir.ParamLocals[1]].Class, nullptr);
}

TEST(IrTest, StaticMethodHasNoReceiver) {
  auto L = lower("class A { static int m() { return 1; } }", "m");
  EXPECT_EQ(L.Ir.ReceiverLocal, NoLocal);
}

TEST(IrTest, StraightLineShape) {
  auto L = lower("class A { A f; A m() { A x = f; return x; } }", "m");
  EXPECT_EQ(L.Ir.Blocks.size(), 2u); // Body block + post-return block.
  EXPECT_EQ(countActions(L.Ir, ActionKind::FieldLoad), 1u);
  EXPECT_EQ(countActions(L.Ir, ActionKind::Copy), 1u);
  EXPECT_EQ(countActions(L.Ir, ActionKind::Return), 1u);
}

TEST(IrTest, IfShape) {
  auto L = lower(
      "class A { void m(boolean b) { if (b) { m(b); } else { } } }", "m");
  // cond, then, else, join.
  ASSERT_EQ(L.Ir.Blocks.size(), 4u);
  EXPECT_EQ(L.Ir.Blocks[0].Term.Kind, TermKind::CondBranch);
  ASSERT_EQ(L.Ir.Blocks[0].Term.Succs.size(), 2u);
  auto Preds = L.Ir.predecessors();
  EXPECT_EQ(Preds[3].size(), 2u); // Join has both branch preds.
}

TEST(IrTest, WhileShape) {
  auto L = lower(
      "class A { void m(int k) { while (k > 0) { k = k - 1; } } }", "m");
  // entry, head, body, exit.
  ASSERT_EQ(L.Ir.Blocks.size(), 4u);
  const Terminator &Head = L.Ir.Blocks[1].Term;
  EXPECT_EQ(Head.Kind, TermKind::CondBranch);
  // The body jumps back to the head.
  EXPECT_EQ(L.Ir.Blocks[Head.Succs[0]].Term.Succs[0], 1u);
}

TEST(IrTest, StateTestRecognized) {
  auto L = lower(iteratorApiSource() + R"mj(
class C {
  int m(Iterator<Integer> it) {
    if (it.hasNext()) {
      return it.next();
    }
    return 0;
  }
}
)mj",
                 "m");
  const Terminator &T = L.Ir.Blocks[0].Term;
  ASSERT_EQ(T.Kind, TermKind::CondBranch);
  ASSERT_TRUE(T.StateTest.has_value());
  EXPECT_EQ(T.StateTest->TestMethod->Name, "hasNext");
  EXPECT_FALSE(T.StateTest->Negated);
  EXPECT_EQ(T.StateTest->Subject, L.Ir.ParamLocals[0]);
}

TEST(IrTest, NegatedStateTest) {
  auto L = lower(iteratorApiSource() + R"mj(
class C {
  int m(Iterator<Integer> it) {
    if (!it.hasNext()) {
      return 0;
    }
    return it.next();
  }
}
)mj",
                 "m");
  ASSERT_TRUE(L.Ir.Blocks[0].Term.StateTest.has_value());
  EXPECT_TRUE(L.Ir.Blocks[0].Term.StateTest->Negated);
}

TEST(IrTest, NonTestConditionNotRecognized) {
  auto L = lower("class A { void m(int k) { if (k > 0) { } } }", "m");
  EXPECT_FALSE(L.Ir.Blocks[0].Term.StateTest.has_value());
}

TEST(IrTest, SynchronizedEmitsMarkers) {
  auto L = lower(
      "class A { void m(A o) { synchronized (o) { o.m(o); } } }", "m");
  EXPECT_EQ(countActions(L.Ir, ActionKind::EnterSync), 1u);
  EXPECT_EQ(countActions(L.Ir, ActionKind::ExitSync), 1u);
}

TEST(IrTest, CallLowering) {
  auto L = lower(R"mj(
class A {
  A id(A x) { return x; }
  void m(A p) { A y = id(p).id(p); }
}
)mj",
                 "m");
  EXPECT_EQ(countActions(L.Ir, ActionKind::Call), 2u);
  // First call's receiver is the implicit `this`.
  const Action *First = nullptr;
  for (const BasicBlock &B : L.Ir.Blocks)
    for (const Action &A : B.Actions)
      if (A.Kind == ActionKind::Call && !First)
        First = &A;
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->Recv, L.Ir.ReceiverLocal);
  ASSERT_EQ(First->Args.size(), 1u);
  EXPECT_EQ(First->Args[0], L.Ir.ParamLocals[0]);
}

TEST(IrTest, FieldStoreLowering) {
  auto L = lower("class A { A f; void m(A o) { o.f = o; f = o; } }", "m");
  EXPECT_EQ(countActions(L.Ir, ActionKind::FieldStore), 2u);
}

TEST(IrTest, AllocLowering) {
  auto L = lower("class A { A m() { return new A(); } }", "m");
  EXPECT_EQ(countActions(L.Ir, ActionKind::Alloc), 1u);
}

TEST(IrTest, UnreachableCodeAfterReturn) {
  auto L = lower("class A { int m() { return 1; } }", "m");
  // Lowering creates a trailing block after the return; it must be
  // well-formed (terminated) even though unreachable.
  for (const BasicBlock &B : L.Ir.Blocks)
    if (B.Term.Kind != TermKind::Exit) {
      EXPECT_FALSE(B.Term.Succs.empty());
    }
}

TEST(IrTest, ListingIsStable) {
  auto L = lower("class A { void m(A o) { o.m(o); } }", "m");
  std::string S1 = L.Ir.str();
  EXPECT_FALSE(S1.empty());
  EXPECT_NE(S1.find("bb0:"), std::string::npos);
  EXPECT_EQ(S1, L.Ir.str());
}
