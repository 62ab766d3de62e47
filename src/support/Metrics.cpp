//===- Metrics.cpp - Named counters, gauges and histograms -----------------===//

#include "support/Metrics.h"

#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

using namespace anek;
using namespace anek::telemetry;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

/// Bucket b covers [2^(b-32), 2^(b-31)); bucket 0 additionally absorbs
/// zeros, negatives and NaN, the last bucket absorbs +inf and overflow.
unsigned bucketIndex(double Sample) {
  if (!(Sample > 0.0))
    return 0; // Zero, negative, NaN.
  if (!std::isfinite(Sample))
    return Histogram::NumBuckets - 1;
  int Exp = 0;
  std::frexp(Sample, &Exp); // Sample in [2^(Exp-1), 2^Exp).
  long B = static_cast<long>(Exp) + 31;
  return static_cast<unsigned>(
      std::clamp<long>(B, 0, Histogram::NumBuckets - 1));
}

} // namespace

void Histogram::record(double Sample) {
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Sample, std::memory_order_relaxed);
  Buckets[bucketIndex(Sample)].fetch_add(1, std::memory_order_relaxed);
  double Cur = Min.load(std::memory_order_relaxed);
  while (Sample < Cur &&
         !Min.compare_exchange_weak(Cur, Sample, std::memory_order_relaxed))
    ;
  Cur = Max.load(std::memory_order_relaxed);
  while (Sample > Cur &&
         !Max.compare_exchange_weak(Cur, Sample, std::memory_order_relaxed))
    ;
}

uint64_t Histogram::bucketCount(unsigned I) const {
  return I < NumBuckets ? Buckets[I].load(std::memory_order_relaxed) : 0;
}

double Histogram::percentile(double Q) const {
  if (!count())
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumBuckets; ++I)
    Total += bucketCount(I);
  if (Total == 0)
    return mean(); // Racing a record() that has not bumped its bucket.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Total)));
  Rank = std::max<uint64_t>(1, std::min(Rank, Total));
  uint64_t Cum = 0;
  unsigned Hit = NumBuckets - 1;
  for (unsigned I = 0; I != NumBuckets; ++I) {
    Cum += bucketCount(I);
    if (Cum >= Rank) {
      Hit = I;
      break;
    }
  }
  // Geometric midpoint of the hit bucket; bucket 0 has no lower bound,
  // so report the observed minimum. Clamp into the true range.
  double Rep = Hit == 0
                   ? min()
                   : std::exp2(static_cast<double>(Hit) - 32.0) *
                         std::sqrt(2.0);
  return std::clamp(Rep, min(), max());
}

double Histogram::min() const {
  return count() ? Min.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() ? Max.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::mean() const {
  uint64_t N = count();
  return N ? sum() / static_cast<double>(N) : 0.0;
}

void Histogram::reset() {
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0.0, std::memory_order_relaxed);
  Min.store(std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  Max.store(-std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  for (unsigned I = 0; I != NumBuckets; ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// std::map keeps names sorted, giving the exporter its stable key order
/// for free; std::less<> lets a lookup compare a string_view without
/// building a key. Entries are never erased, so references handed out by
/// the lookup functions stay valid for the process lifetime.
template <typename T>
using MetricMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

struct MetricsRegistry {
  std::mutex Mutex;
  MetricMap<Counter> Counters;
  MetricMap<Gauge> Gauges;
  MetricMap<Histogram> Histograms;
};

MetricsRegistry &registry() {
  static MetricsRegistry *R = new MetricsRegistry(); // Never destroyed:
  return *R; // cached references must survive static teardown.
}

template <typename T>
T &lookup(MetricMap<T> &Map, std::string_view Name, std::mutex &Mutex) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Name);
  if (It == Map.end())
    It = Map.emplace(std::string(Name), std::make_unique<T>()).first;
  return *It->second;
}

} // namespace

Counter &anek::telemetry::counter(std::string_view Name) {
  MetricsRegistry &R = registry();
  return lookup(R.Counters, Name, R.Mutex);
}

Gauge &anek::telemetry::gauge(std::string_view Name) {
  MetricsRegistry &R = registry();
  return lookup(R.Gauges, Name, R.Mutex);
}

Histogram &anek::telemetry::histogram(std::string_view Name) {
  MetricsRegistry &R = registry();
  return lookup(R.Histograms, Name, R.Mutex);
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

std::string anek::telemetry::metricsJson() {
  MetricsRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out;
  Out += "{\n  \"schema\": \"anek-metrics-v1\",\n";
  Out += "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, C] : R.Counters) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": " +
           std::to_string(static_cast<unsigned long long>(C->value()));
  }
  Out += First ? "},\n" : "\n  },\n";
  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, G] : R.Gauges) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": " + jsonNumber(G->value());
  }
  Out += First ? "},\n" : "\n  },\n";
  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : R.Histograms) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    " + jsonQuote(Name) + ": {\"count\": " +
           std::to_string(static_cast<unsigned long long>(H->count())) +
           ", \"sum\": " + jsonNumber(H->sum()) +
           ", \"min\": " + jsonNumber(H->min()) +
           ", \"max\": " + jsonNumber(H->max()) +
           ", \"mean\": " + jsonNumber(H->mean()) +
           ", \"p50\": " + jsonNumber(H->percentile(0.50)) +
           ", \"p95\": " + jsonNumber(H->percentile(0.95)) +
           ", \"p99\": " + jsonNumber(H->percentile(0.99)) + "}";
  }
  Out += First ? "}\n" : "\n  }\n";
  Out += "}\n";
  return Out;
}

bool anek::telemetry::writeMetricsFile(const std::string &Path,
                                       std::string *Error) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << metricsJson();
  Out.flush();
  if (!Out) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

void anek::telemetry::resetMetricsForTest() {
  MetricsRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (auto &[Name, C] : R.Counters)
    C->reset();
  for (auto &[Name, G] : R.Gauges)
    G->reset();
  for (auto &[Name, H] : R.Histograms)
    H->reset();
}
