//===- InlineComparison.cpp - Table 3 workload -----------------------------===//

#include "corpus/InlineComparison.h"

#include "support/Format.h"
#include "support/Rng.h"

using namespace anek;

/// The annotated API both variants use.
static std::string widgetApi() {
  return R"mj(
class Widget {
  int v;

  @Perm(requires="full(this)", ensures="full(this)")
  void mutate();

  @Perm(requires="share(this)", ensures="share(this)")
  void poke();

  @Perm(requires="pure(this)", ensures="pure(this)")
  int peek();
}
)mj";
}

/// One short branchy body; \p Step varies the shape deterministically.
static std::string stepBody(unsigned Step, Rng &Random) {
  const char *Pad = "    ";
  std::string Out;
  unsigned Threshold = static_cast<unsigned>(Random.range(1, 99));
  switch (Step % 3) {
  case 0:
    Out += formatStr("%sif (w.peek() > %u) {\n%s  w.mutate();\n"
                     "%s} else {\n%s  w.poke();\n%s}\n",
                     Pad, Threshold, Pad, Pad, Pad, Pad);
    break;
  case 1:
    Out += formatStr("%sif (w.peek() < %u) {\n%s  w.poke();\n%s}\n", Pad,
                     Threshold, Pad, Pad);
    Out += formatStr("%sw.mutate();\n", Pad);
    break;
  default:
    Out += formatStr("%sint guard%u = w.peek();\n", Pad, Step);
    Out += formatStr("%sif (guard%u > %u) {\n%s  w.mutate();\n%s} else {\n"
                     "%s  w.mutate();\n%s}\n",
                     Pad, Step, Threshold, Pad, Pad, Pad, Pad);
    break;
  }
  return Out;
}

static unsigned countLines(const std::string &S) {
  unsigned Lines = 0;
  for (char C : S)
    if (C == '\n')
      ++Lines;
  return Lines;
}

InlinePrograms anek::generateInlineComparison(unsigned NumHelpers,
                                              uint64_t Seed) {
  InlinePrograms Out;
  Out.HelperMethods = NumHelpers;

  // Modular variant: many short branchy methods, invoked in sequence by
  // a driver (the paper's "numerous short methods").
  {
    Rng Random(Seed);
    std::string Src = widgetApi();
    Src += "\nclass Chain {\n";
    for (unsigned I = 0; I != NumHelpers; ++I) {
      Src += formatStr("  void step%u(Widget w) {\n", I);
      Src += stepBody(I, Random);
      Src += "  }\n\n";
    }
    Src += "  void run(Widget w) {\n";
    for (unsigned I = 0; I != NumHelpers; ++I)
      Src += formatStr("    step%u(w);\n", I);
    Src += "  }\n";
    Src += "}\n";
    Out.Modular = std::move(Src);
    Out.ModularLines = countLines(Out.Modular);
  }

  // Inlined variant: the same work in one large method. Reseeding keeps
  // the branch shapes identical to the modular variant.
  {
    Rng Random(Seed);
    std::string Src = widgetApi();
    Src += "\nclass ChainInlined {\n  void runAll(Widget w) {\n";
    for (unsigned I = 0; I != NumHelpers; ++I)
      Src += stepBody(I, Random);
    Src += "  }\n}\n";
    Out.Inlined = std::move(Src);
    Out.InlinedLines = countLines(Out.Inlined);
  }

  return Out;
}
