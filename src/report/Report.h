//===- Report.h - The `anek report` run profiler -----------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Digests the telemetry artifacts one run leaves behind — an
/// `anek-trace-v1` Chrome trace, an `anek-metrics-v1` snapshot, an
/// `anek-batch-v1` JSONL stream, any subset — into one profile a human
/// can read in ten seconds (DESIGN.md, "Distributed telemetry"): where
/// the wall-clock went per phase, the top spans by duration, the cache
/// hit rate, how hard the shard tier fought (spawns, losses,
/// re-dispatches, quarantines), the queue-wait vs. solve split, the
/// share of worklist picks the in-run SOLVE memo replayed, and the
/// per-request outcome table.
///
/// The profiler is a pure function of the artifact bytes: it never runs
/// inference, so profiling a run costs milliseconds regardless of what
/// the run cost. Missing artifacts degrade the profile (their sections
/// are absent), they never fail it — `anek report --metrics m.json` with
/// no trace is a legitimate call. Malformed artifact files, by contrast,
/// are hard errors: a truncated trace silently profiled as "fast" would
/// be worse than no profile.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_REPORT_REPORT_H
#define ANEK_REPORT_REPORT_H

#include "support/Status.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace anek {
namespace report {

/// Aggregate of one span name within the trace.
struct SpanStat {
  std::string Name;
  uint64_t Count = 0;
  int64_t TotalUs = 0;
  int64_t MaxUs = 0;
};

/// One row of the per-request outcome table (from the batch JSONL).
struct RequestRow {
  unsigned Index = 0;
  std::string Id;
  std::string State;
  unsigned Attempts = 0;
  double Seconds = 0.0;
  double QueueSeconds = 0.0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  std::string Reason;
};

/// Everything `anek report` prints, in analyzable form. Sections are
/// independently optional (Has* flags) so any artifact subset profiles.
struct Profile {
  // --- Trace-derived (HasTrace) ------------------------------------
  bool HasTrace = false;
  /// Wall-clock per top-level phase: depth-0 complete spans grouped by
  /// name, ordered by total duration descending.
  std::vector<SpanStat> Phases;
  /// All complete spans grouped by name, ordered by total duration
  /// descending, truncated to TopK by the renderers.
  std::vector<SpanStat> Spans;
  /// Remote (worker) pids seen in the trace, ascending.
  std::vector<unsigned> WorkerPids;
  uint64_t TraceEvents = 0;
  int64_t TraceSpanUs = 0; ///< max end - min start over complete spans.

  // --- Metrics-derived (HasMetrics) --------------------------------
  bool HasMetrics = false;
  std::map<std::string, uint64_t> Counters;
  /// Histogram name -> (count, sum, p50, p95, p99) in exported units.
  struct HistRow {
    uint64_t Count = 0;
    double Sum = 0.0, P50 = 0.0, P95 = 0.0, P99 = 0.0;
  };
  std::map<std::string, HistRow> Histograms;
  /// cache.hit / (cache.hit + cache.miss); negative when no cache
  /// counters were exported.
  double CacheHitRate = -1.0;
  /// Total microseconds requests spent queued vs. solving (from the
  /// infer.queue_wait_us / infer.method_run_us counters). Jobs that ran
  /// inline on the scheduling thread (-j1) never queue and record no
  /// wait.
  uint64_t QueueWaitUs = 0;
  uint64_t MethodRunUs = 0;
  /// Worklist picks, and how many of them the in-run SOLVE memo replayed
  /// instead of solving (infer.worklist_picks / infer.replays).
  uint64_t Picks = 0;
  uint64_t Replays = 0;
  /// Shard-tier effort counters (0 when the run never sharded).
  uint64_t WorkersSpawned = 0;
  uint64_t WorkersLost = 0;
  uint64_t Redispatches = 0;
  uint64_t Quarantined = 0;
  uint64_t TelemetryFrames = 0;
  uint64_t TelemetryDropped = 0;

  // --- Batch-derived (HasBatch) ------------------------------------
  bool HasBatch = false;
  std::vector<RequestRow> Requests;
  std::map<std::string, unsigned> StateCounts;
  double BatchSeconds = 0.0;      ///< Sum of per-request execution time.
  double BatchQueueSeconds = 0.0; ///< Sum of per-request queue wait.
  uint64_t BatchCacheHits = 0;
  uint64_t BatchCacheMisses = 0;
};

/// How many top spans the renderers show.
constexpr unsigned DefaultTopK = 10;

/// Builds a profile from artifact *text* already in memory; empty strings
/// mean "artifact absent". This is the testable core — file I/O stays in
/// buildProfile.
Expected<Profile> profileFromText(const std::string &TraceJson,
                                  const std::string &MetricsJson,
                                  const std::string &BatchJsonl);

/// Reads the named artifact files (empty paths skipped) and profiles
/// them. Unreadable or malformed files are errors.
Expected<Profile> buildProfile(const std::string &TracePath,
                               const std::string &MetricsPath,
                               const std::string &BatchPath);

/// The human-readable rendering (the default `anek report` output).
std::string renderText(const Profile &P, unsigned TopK = DefaultTopK);

/// The machine-readable rendering: one `anek-report-v1` JSON document.
std::string renderJson(const Profile &P, unsigned TopK = DefaultTopK);

} // namespace report
} // namespace anek

#endif // ANEK_REPORT_REPORT_H
