//===- BenchUtil.h - Shared helpers for the benchmark binaries ---*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#ifndef ANEK_BENCH_BENCHUTIL_H
#define ANEK_BENCH_BENCHUTIL_H

#include "corpus/PmdGenerator.h"
#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "plural/Checker.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace anek {

/// Parses and analyzes or aborts with diagnostics (benches only).
inline std::unique_ptr<Program> mustAnalyze(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "bench: corpus failed to analyze:\n%s\n",
                 Diags.str().substr(0, 4000).c_str());
    std::exit(1);
  }
  return Prog;
}

/// Spec provider over a hand-spec map with declared specs as fallback.
inline SpecProvider
handProvider(const MethodDeclMap<MethodSpec> &Hand) {
  return [&Hand](const MethodDecl *M) -> const MethodSpec * {
    static const MethodSpec Empty;
    auto It = Hand.find(M);
    if (It != Hand.end())
      return &It->second;
    return M->HasDeclaredSpec ? &M->DeclaredSpec : &Empty;
  };
}

/// Spec provider over an inference result.
inline SpecProvider inferredProvider(const InferResult &R) {
  return [&R](const MethodDecl *M) { return R.specFor(M); };
}

/// Prints a rule line for table output.
inline void rule() {
  std::puts("-----------------------------------------------------------");
}

} // namespace anek

#endif // ANEK_BENCH_BENCHUTIL_H
