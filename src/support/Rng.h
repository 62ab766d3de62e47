//===- Rng.h - Deterministic pseudo-random numbers ---------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded SplitMix64 generator. Every randomized component (corpus
/// generation, the random graphs of the tests and benches) takes one of
/// these so every run of the test and bench suites is reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_RNG_H
#define ANEK_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace anek {

/// SplitMix64: tiny, fast, and statistically adequate for workload
/// generation.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  /// Next raw 64-bit value.
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }

  /// Uniform integer in [0, Bound).
  uint64_t below(uint64_t Bound) {
    assert(Bound > 0 && "bound must be positive");
    return next() % Bound;
  }

  /// Uniform integer in [Lo, Hi] inclusive.
  uint64_t range(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + below(Hi - Lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability \p P.
  bool flip(double P) { return uniform() < P; }

private:
  uint64_t State;
};

} // namespace anek

#endif // ANEK_SUPPORT_RNG_H
