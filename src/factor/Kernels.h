//===- Kernels.h - BP kernel constants ---------------------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What code outside the BP engine (factor/BpDriver.h) knows of its
/// passes: the degree at which a variable's messages move to the log
/// domain, and the name of the one kernel set.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_KERNELS_H
#define ANEK_FACTOR_KERNELS_H

#include <cstdint>

namespace anek {
namespace kern {

/// Variables with at least this many incident edges get their phase-1
/// messages recomputed in the log domain by the engine (a product of 64+
/// clamped probabilities can underflow to 0 and erase the signal).
constexpr uint32_t LogDomainMinDegree = 64;

/// The kernel set a run used. There is one: the results of the
/// end-to-end bench (e2e_bench/harness.cpp) are stamped with its name.
enum class Backend : int {
  Scalar = 0,
};

/// Kind of the kernel set every solve runs on.
inline Backend activeKernelBackend() { return Backend::Scalar; }

/// Human-readable name for a kernel set: "scalar".
inline const char *kernelBackendName(Backend) { return "scalar"; }

} // namespace kern
} // namespace anek

#endif // ANEK_FACTOR_KERNELS_H
