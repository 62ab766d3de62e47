//===- checker_test.cpp - Unit tests for the PLURAL checker ----------------===//

#include "corpus/ExampleSources.h"
#include "lang/Sema.h"
#include "plural/Checker.h"

#include <gtest/gtest.h>

using namespace anek;

namespace {

struct Checked {
  std::unique_ptr<Program> Prog;
  CheckResult Result;
};

Checked check(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  CheckResult R = runChecker(*Prog, declaredSpecsOnly());
  return {std::move(Prog), std::move(R)};
}

} // namespace

TEST(CheckerTest, DirectIteratorLoopVerifies) {
  Checked C = check(iteratorApiSource() + R"mj(
class M {
  Collection<Integer> items;
  int scan() {
    int total = 0;
    Iterator<Integer> it = items.iterator();
    while (it.hasNext()) {
      total = total + it.next();
    }
    return total;
  }
}
)mj");
  EXPECT_EQ(C.Result.warningCount(), 0u);
}

TEST(CheckerTest, UnguardedNextWarns) {
  Checked C = check(iteratorApiSource() + R"mj(
class M {
  Collection<Integer> items;
  int first() {
    Iterator<Integer> it = items.iterator();
    return it.next();
  }
}
)mj");
  ASSERT_EQ(C.Result.warningCount(), 1u);
  EXPECT_NE(C.Result.Warnings[0].Message.find("HASNEXT"),
            std::string::npos);
  EXPECT_EQ(C.Result.Warnings[0].Callee->Name, "next");
}

TEST(CheckerTest, IfGuardedNextVerifies) {
  Checked C = check(iteratorApiSource() + R"mj(
class M {
  Collection<Integer> items;
  int guarded() {
    Iterator<Integer> it = items.iterator();
    if (it.hasNext()) {
      return it.next();
    }
    return 0;
  }
}
)mj");
  EXPECT_EQ(C.Result.warningCount(), 0u);
}

TEST(CheckerTest, NegatedGuard) {
  Checked C = check(iteratorApiSource() + R"mj(
class M {
  Collection<Integer> items;
  int guarded() {
    Iterator<Integer> it = items.iterator();
    if (!it.hasNext()) {
      return 0;
    }
    return it.next();
  }
}
)mj");
  EXPECT_EQ(C.Result.warningCount(), 0u);
}

TEST(CheckerTest, FileProtocol) {
  Checked C = check(fileProtocolSource());
  // Exactly one violation: useAfterClose reads a CLOSED file.
  ASSERT_EQ(C.Result.warningCount(), 1u);
  EXPECT_EQ(C.Result.Warnings[0].InMethod->Name, "useAfterClose");
  EXPECT_NE(C.Result.Warnings[0].Message.find("OPEN"), std::string::npos);
}

TEST(CheckerTest, InsufficientKindWarns) {
  Checked C = check(R"mj(
class W {
  @Perm(requires="full(this)", ensures="full(this)")
  void mutate();
}
class M {
  @Perm(requires="pure(w)", ensures="pure(w)")
  void m(W w) {
    w.mutate();
  }
}
)mj");
  ASSERT_EQ(C.Result.warningCount(), 1u);
  EXPECT_NE(C.Result.Warnings[0].Message.find("full"), std::string::npos);
}

TEST(CheckerTest, BorrowingRestoresPermission) {
  // Lending full out of unique and getting it back leaves unique, so the
  // unique(result) postcondition holds.
  Checked C = check(R"mj(
class W {
  @Perm(requires="full(this)", ensures="full(this)")
  void mutate();
}
class M {
  @Perm(ensures="unique(result)")
  W build() {
    W w = new W();
    w.mutate();
    return w;
  }
}
)mj");
  EXPECT_EQ(C.Result.warningCount(), 0u);
}

TEST(CheckerTest, PostconditionViolationWarns) {
  Checked C = check(R"mj(
class M {
  @Perm(ensures="unique(result)")
  M broken(M p) {
    return p;
  }
}
)mj");
  // p enters with the default share permission; unique cannot be returned.
  ASSERT_EQ(C.Result.warningCount(), 1u);
  EXPECT_NE(C.Result.Warnings[0].Message.find("unique"),
            std::string::npos);
}

TEST(CheckerTest, ParamPostconditionChecked) {
  Checked C = check(R"mj(
class W {
  @Perm(requires="full(this) in DONE", ensures="full(this)")
  void finish();
}
@States({"DONE"})
class M {
  @Perm(requires="full(p) in DONE", ensures="full(p) in DONE")
  void keep(W p) {
    p.finish();
  }
}
)mj");
  // finish() resets the state to ALIVE, so the DONE postcondition on p
  // fails.
  ASSERT_EQ(C.Result.warningCount(), 1u);
  EXPECT_NE(C.Result.Warnings[0].Message.find("DONE"), std::string::npos);
}

TEST(CheckerTest, FieldWriteRequiresWritingPermission) {
  Checked C = check(R"mj(
class M {
  int data;
  @Perm(requires="pure(this)", ensures="pure(this)")
  void sneaky() {
    data = 1;
  }
}
)mj");
  ASSERT_EQ(C.Result.warningCount(), 1u);
  EXPECT_NE(C.Result.Warnings[0].Message.find("modifying"),
            std::string::npos);
}

TEST(CheckerTest, CtorGivesUnique) {
  Checked C = check(R"mj(
class W {
  @Perm(requires="unique(this)", ensures="unique(this)")
  void consume();
}
class M {
  void m() {
    W w = new W();
    w.consume();
  }
}
)mj");
  EXPECT_EQ(C.Result.warningCount(), 0u);
}

namespace {
/// Warnings attributed to one method.
unsigned warningsIn(const CheckResult &R, const std::string &Method) {
  unsigned N = 0;
  for (const CheckWarning &W : R.Warnings)
    N += W.InMethod->Name == Method;
  return N;
}
} // namespace

TEST(CheckerTest, AliasSharesState) {
  // A state transition through one local is visible through its alias.
  Checked C = check(fileProtocolSource() + R"mj(
class M {
  int m(String path) {
    File f = new File(path);
    File g = f;
    g.close();
    return f.read();
  }
}
)mj");
  EXPECT_EQ(warningsIn(C.Result, "m"), 1u);
}

TEST(CheckerTest, LoopJoinIsSound) {
  // Closing inside a loop body forces the join to forget OPEN.
  Checked C = check(fileProtocolSource() + R"mj(
class M {
  void m(String path, int n) {
    File f = new File(path);
    while (n > 0) {
      f.read();
      n = n - 1;
    }
    f.close();
  }
}
)mj");
  EXPECT_EQ(warningsIn(C.Result, "m"), 0u);
}

TEST(CheckerTest, WarningsDedupPerSite) {
  // One bad call site inside a loop body reports once, not per fixpoint
  // iteration.
  Checked C = check(iteratorApiSource() + R"mj(
class M {
  Collection<Integer> items;
  int m(int n) {
    int total = 0;
    while (n > 0) {
      Iterator<Integer> it = items.iterator();
      total = total + it.next();
      n = n - 1;
    }
    return total;
  }
}
)mj");
  EXPECT_EQ(C.Result.warningCount(), 1u);
}

TEST(CheckerTest, MethodsCheckedCount) {
  Checked C = check("class A { void a() { } void b() { } }");
  EXPECT_EQ(C.Result.MethodsChecked, 2u);
}
