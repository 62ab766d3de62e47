//===- RetryPolicy.h - Transient-failure retry with backoff ------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Retry policy of the serving layer (DESIGN.md, "Serving model"). Only
/// the typed transient class is retried — ErrorCode::Unavailable (a
/// resource that should come back) and ErrorCode::WorkerLost (a shard
/// worker died with the work, not because of it); every other failure is
/// terminal for the request, because re-running a deterministic inference
/// on the same bad input produces the same failure. Backoff is capped
/// exponential with *deterministic* jitter:
/// the multiplier is derived from a stable hash of (request label,
/// attempt, seed), so two runs of the same batch make identical retry
/// schedules and the chaos-soak harness can assert exact attempt counts.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SERVE_RETRYPOLICY_H
#define ANEK_SERVE_RETRYPOLICY_H

#include "support/Status.h"

#include <cstdint>
#include <string>

namespace anek {
namespace serve {

/// Capped exponential backoff over the transient failure class.
struct RetryPolicy {
  /// Total execution attempts per request (first try included).
  unsigned MaxAttempts = 3;
  /// Delay before attempt 2; doubles per attempt up to MaxDelaySeconds.
  double BaseDelaySeconds = 0.01;
  double MaxDelaySeconds = 0.5;
  /// Mixed into the jitter hash; the batch seed, so whole-batch reruns
  /// reproduce byte-identically.
  uint64_t Seed = 1;

  /// True for the typed transient set: Unavailable and WorkerLost. Both
  /// mean "the attempt was interrupted, not refuted" — nothing about the
  /// input makes a retry futile. InvalidArgument, ResourceExhausted,
  /// DeadlineExceeded, Unsatisfiable, FaultInjected and Internal are all
  /// deterministic verdicts about the request and stay terminal.
  static bool isTransient(const Status &S) {
    return S.code() == ErrorCode::Unavailable ||
           S.code() == ErrorCode::WorkerLost;
  }

  /// Whether another attempt should be made after \p AttemptsMade
  /// attempts ended with \p S.
  bool shouldRetry(const Status &S, unsigned AttemptsMade) const {
    return isTransient(S) && AttemptsMade < MaxAttempts;
  }

  /// Backoff before attempt \p Attempt (2-based: the delay preceding the
  /// second attempt is delaySeconds(Label, 2)). Deterministic in (Label,
  /// Attempt, Seed); the jitter multiplier lies in [0.5, 1.0].
  double delaySeconds(const std::string &Label, unsigned Attempt) const;
};

} // namespace serve
} // namespace anek

#endif // ANEK_SERVE_RETRYPOLICY_H
