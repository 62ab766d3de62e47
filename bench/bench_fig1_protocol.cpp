//===- bench_fig1_protocol.cpp - Reproduce Figure 1 -------------------------===//
//
// Paper Figure 1: the iterator protocol statechart (ALIVE with HASNEXT /
// END refinements; next() only in HASNEXT; hasNext() indicates the
// state). This bench renders the protocol from the annotated API and
// demonstrates the checker enforcing each transition on conforming and
// violating clients.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/ExampleSources.h"
#include "support/Format.h"

using namespace anek;

int main() {
  std::unique_ptr<Program> Prog = mustAnalyze(iteratorApiSource());
  TypeDecl *Iterator = Prog->findType("Iterator");

  std::puts("Figure 1: the iterator protocol (recovered from the API"
            " annotations)");
  rule();
  std::puts("states:");
  for (StateId Id = 0; Id != Iterator->States.size(); ++Id) {
    std::printf("  %-8s", Iterator->States.name(Id).c_str());
    if (Id != StateSpace::AliveId)
      std::printf(" refines %s",
                  Iterator->States.name(Iterator->States.parent(Id))
                      .c_str());
    std::puts("");
  }
  std::puts("transitions:");
  for (const auto &M : Iterator->Methods) {
    const MethodSpec &S = M->DeclaredSpec;
    std::string Pre = S.ReceiverPre ? printPermState(*S.ReceiverPre)
                                    : std::string("-");
    std::string Post = S.ReceiverPost ? printPermState(*S.ReceiverPost)
                                      : std::string("-");
    std::printf("  %-10s %-22s -> %-16s", M->Name.c_str(), Pre.c_str(),
                Post.c_str());
    if (!S.TrueIndicates.empty())
      std::printf("  [true => %s, false => %s]", S.TrueIndicates.c_str(),
                  S.FalseIndicates.c_str());
    std::puts("");
  }
  rule();

  // Protocol enforcement demo: one conforming and one violating client.
  struct Client {
    const char *Name;
    const char *Body;
    unsigned ExpectedWarnings;
  } Clients[] = {
      {"conforming (hasNext-guarded loop)",
       "class C { Collection<Integer> items; int m() { int t = 0; "
       "Iterator<Integer> it = items.iterator(); while (it.hasNext()) "
       "{ t = t + it.next(); } return t; } }",
       0},
      {"violating (next with no guard)",
       "class C { Collection<Integer> items; int m() { "
       "Iterator<Integer> it = items.iterator(); return it.next(); } }",
       1},
      {"violating (next after END indicated)",
       "class C { Collection<Integer> items; int m() { "
       "Iterator<Integer> it = items.iterator(); "
       "if (!it.hasNext()) { return it.next(); } return 0; } }",
       1},
  };

  std::puts("checker enforcement:");
  bool AllMatch = true;
  for (const Client &C : Clients) {
    std::unique_ptr<Program> P =
        mustAnalyze(iteratorApiSource() + C.Body);
    CheckResult R = runChecker(*P, declaredSpecsOnly());
    bool Match = R.warningCount() == C.ExpectedWarnings;
    AllMatch &= Match;
    std::printf("  %-42s %u warning(s), expected %u  [%s]\n", C.Name,
                R.warningCount(), C.ExpectedWarnings,
                Match ? "ok" : "MISMATCH");
  }
  return AllMatch ? 0 : 1;
}
