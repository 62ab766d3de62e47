//===- Metrics.h - Named counters, gauges and histograms --------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide metrics registered by name (DESIGN.md, "Telemetry"):
/// monotonic counters, last-value gauges and min/max/sum histograms, all
/// updated with relaxed atomics so they are safe from any thread.
///
/// Instrumentation sites gate recording on telemetry::metering() (Trace.h)
/// — one relaxed load, true exactly when the run writes a metrics
/// document — and then update the metric by name:
///
///   if (telemetry::metering())
///     counter("solver.bp.solves").add(1);
///
/// Each lookup takes the registry's mutex; finding a registered name
/// allocates nothing. A site hot enough for the lock to show, such as
/// the lexer's per-token counter, may instead cache the registered
/// object in a function-local static.
///
/// The exporter renders a schema-versioned flat JSON document
/// (`anek-metrics-v1`) with stable, sorted key order so diffs between
/// runs are meaningful. Registered objects are never deallocated;
/// resetMetricsForTest zeroes values but keeps references valid.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_METRICS_H
#define ANEK_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace anek {
namespace telemetry {

/// Monotonically increasing event count.
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Last-written value (e.g. a configuration knob or a final residual).
class Gauge {
public:
  void set(double V) { Value.store(V, std::memory_order_relaxed); }
  double value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> Value{0.0};
};

/// Streaming count/sum/min/max plus log-scale bucket counts over recorded
/// samples. Min/max converge via CAS loops, sum via C++20
/// atomic<double>::fetch_add, buckets via relaxed increments; concurrent
/// recording from solver threads is safe and lock-free.
///
/// Buckets are powers of two spanning [2^-32, 2^31): bucket 0 collects
/// everything <= 2^-32 (zeros and negatives included), bucket b covers
/// [2^(b-32), 2^(b-31)), the last bucket everything above. That gives
/// percentile estimates with at most one-octave error across the whole
/// microsecond-to-hours range the pipeline records, at a fixed 64 x u64
/// footprint per histogram.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

  void record(double Sample);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Min/max of recorded samples; 0 when empty (matching the exporter).
  double min() const;
  double max() const;
  double mean() const;
  /// Estimated value at quantile \p Q in [0,1] from the bucket counts:
  /// the geometric midpoint of the bucket holding the rank, clamped into
  /// [min, max]. 0 when empty. Deterministic for a given sample multiset.
  double percentile(double Q) const;
  uint64_t bucketCount(unsigned I) const;
  void reset();

private:
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Min{std::numeric_limits<double>::infinity()};
  std::atomic<double> Max{-std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// Looks up (registering on first use) the named metric. References stay
/// valid for the process lifetime, across resetMetricsForTest.
Counter &counter(std::string_view Name);
Gauge &gauge(std::string_view Name);
Histogram &histogram(std::string_view Name);

/// Renders every registered metric as the `anek-metrics-v1` JSON
/// document: sorted key order, counters/gauges/histograms in fixed
/// sections.
std::string metricsJson();

/// Writes metricsJson() to \p Path; false (with \p Error filled when
/// non-null) when the file cannot be written.
bool writeMetricsFile(const std::string &Path, std::string *Error = nullptr);

/// Zeroes every registered metric without invalidating references.
void resetMetricsForTest();

} // namespace telemetry
} // namespace anek

#endif // ANEK_SUPPORT_METRICS_H
