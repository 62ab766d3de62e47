//===- Report.h - The `anek report` run profiler -----------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Digests the telemetry artifacts one run leaves behind — an
/// `anek-trace-v1` Chrome trace, an `anek-metrics-v1` snapshot, or both —
/// into one profile a human can read in ten seconds (DESIGN.md,
/// "Telemetry"): where the wall-clock went per phase, the top spans by
/// duration, the cache hit rate, the serial merge's share of phase 2,
/// and the share of worklist picks the in-run SOLVE memo replayed.
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

/// Everything `anek report` prints, in analyzable form. Sections are
/// independently optional (Has* flags) so either artifact alone profiles.
struct Profile {
  // --- Trace-derived (HasTrace) ------------------------------------
  bool HasTrace = false;
  /// Wall-clock per top-level phase: depth-0 complete spans grouped by
  /// name, ordered by total duration descending.
  std::vector<SpanStat> Phases;
  /// All complete spans grouped by name, ordered by total duration
  /// descending, truncated to TopK by the renderers.
  std::vector<SpanStat> Spans;
  uint64_t TraceEvents = 0;
  int64_t TraceSpanUs = 0; ///< max end - min start over complete spans.
  /// Total time of the infer.merge spans and of infer.phase2.waves. The
  /// merge runs on the scheduling thread between a wave's jobs and the
  /// next wave, so it is the part of phase 2 that `-j N` does not
  /// shorten; both 0 without the spans. The text rendering prints the
  /// share in its metrics section, so it needs the metrics artifact too.
  int64_t MergeUs = 0;
  int64_t Phase2Us = 0;

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
  /// Total microseconds wave jobs spent running (the infer.method_run_us
  /// histogram).
  uint64_t MethodRunUs = 0;
  /// Worklist picks, and how many of them the in-run SOLVE memo replayed
  /// instead of solving (infer.worklist_picks / infer.replays).
  uint64_t Picks = 0;
  uint64_t Replays = 0;
};

/// How many top spans the renderers show.
constexpr unsigned DefaultTopK = 10;

/// Builds a profile from artifact *text* already in memory; empty strings
/// mean "artifact absent". This is the testable core — file I/O stays in
/// buildProfile.
Expected<Profile> profileFromText(const std::string &TraceJson,
                                  const std::string &MetricsJson);

/// Reads the named artifact files (empty paths skipped) and profiles
/// them. Unreadable or malformed files are errors.
Expected<Profile> buildProfile(const std::string &TracePath,
                               const std::string &MetricsPath);

/// The human-readable rendering (the default `anek report` output).
std::string renderText(const Profile &P, unsigned TopK = DefaultTopK);

/// The machine-readable rendering: one `anek-report-v1` JSON document.
std::string renderJson(const Profile &P, unsigned TopK = DefaultTopK);

} // namespace report
} // namespace anek

#endif // ANEK_REPORT_REPORT_H
