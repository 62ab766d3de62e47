//===- MaskTimings.h - Mask wall-clock readings in tool output ---*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
// Shared by the tests that compare `anek` output byte for byte
// (determinism_test, trace_test): every wall-clock reading ("0.123s")
// becomes "TIMEs", so a comparison sees only semantic output.
//
//===----------------------------------------------------------------------===//

#ifndef ANEK_TESTS_MASKTIMINGS_H
#define ANEK_TESTS_MASKTIMINGS_H

#include <string>

/// Replaces every match of the regular expression [0-9]+\.[0-9]+s with
/// "TIMEs", scanning left to right as std::regex_replace would: a digit
/// run, a '.', a digit run and an 's'. A run that does not complete a
/// match is copied unchanged and the scan resumes after it, since no
/// match can start inside it.
inline std::string maskTimings(const std::string &In) {
  auto DigitsFrom = [&In](size_t I) {
    while (I != In.size() && In[I] >= '0' && In[I] <= '9')
      ++I;
    return I;
  };
  std::string Out;
  Out.reserve(In.size());
  size_t I = 0;
  while (I != In.size()) {
    const size_t IntEnd = DigitsFrom(I);
    if (IntEnd == I) {
      Out += In[I++];
      continue;
    }
    if (IntEnd != In.size() && In[IntEnd] == '.') {
      const size_t FracEnd = DigitsFrom(IntEnd + 1);
      if (FracEnd != IntEnd + 1 && FracEnd != In.size() &&
          In[FracEnd] == 's') {
        Out += "TIMEs";
        I = FracEnd + 1;
        continue;
      }
    }
    Out.append(In, I, IntEnd - I);
    I = IntEnd;
  }
  return Out;
}

#endif // ANEK_TESTS_MASKTIMINGS_H
