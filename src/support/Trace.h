//===- Trace.h - Structured tracing for the inference pipeline --*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-aware, low-overhead structured tracing substrate (DESIGN.md,
/// "Telemetry"). The pipeline is instrumented with RAII spans; they land
/// on per-thread buffers that are merged at flush time, so tracing
/// composes with `-jN` and observes the run without perturbing it —
/// inferred specs are byte-identical with tracing on or off.
///
/// Collection follows the artifacts: spans record exactly when the run
/// writes a trace, and counters, gauges and histograms (Metrics.h) record
/// exactly when it writes a metrics document. The overhead contract: with
/// both off (the default), every instrumentation site costs exactly one
/// relaxed atomic load (tracing() or metering()) and performs no
/// allocation.
///
/// The exporter writes Chrome `trace_event` JSON (schema `anek-trace-v1`)
/// loadable in chrome://tracing or https://ui.perfetto.dev.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_TRACE_H
#define ANEK_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace anek {
namespace telemetry {

namespace detail {
/// The two collection switches, read on every instrumentation site.
/// Relaxed is correct: they only change while the pipeline is quiescent
/// (driver startup, test fixtures), and a stale read merely records or
/// skips one event.
extern std::atomic<bool> Tracing;
extern std::atomic<bool> Metering;
} // namespace detail

/// True when the run writes a trace: spans record. One relaxed load.
inline bool tracing() {
  return detail::Tracing.load(std::memory_order_relaxed);
}

/// True when the run writes a metrics document: counters, gauges and
/// histograms record. One relaxed load.
inline bool metering() {
  return detail::Metering.load(std::memory_order_relaxed);
}

/// Sets both switches: \p Trace when the run writes a trace, \p Metrics
/// when it writes a metrics document.
void setCollection(bool Trace, bool Metrics);

/// Microseconds since the process trace epoch (first telemetry use).
int64_t nowUs();

/// RAII span: records a Chrome complete event ("ph":"X") covering its
/// lifetime on the calling thread's buffer. Construction while tracing is
/// off is inert — one relaxed load, no allocation, and every other member
/// call is a cheap no-op.
///
/// \p Name must be a string literal (it is stored by pointer). Dynamic
/// detail goes into args, guarded by active() so the argument expression
/// itself is not evaluated when tracing is off:
///
///   telemetry::Span S("infer.method", "infer");
///   if (S.active())
///     S.arg("method", M->qualifiedName());
class Span {
public:
  Span(const char *Name, const char *Category = "anek")
      : Name(Name), Category(Category) {
    if (tracing())
      begin();
  }
  ~Span() {
    if (Buffer)
      end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// True when this span is actually recording.
  bool active() const { return Buffer != nullptr; }

  /// Records the event now instead of at destruction; for phases whose
  /// end does not coincide with a scope. No-op when inactive or closed.
  void close() {
    if (Buffer) {
      end();
      Buffer = nullptr;
    }
  }

  /// Attach a key/value argument (no-ops when inactive).
  void arg(const char *Key, const std::string &Value);
  void arg(const char *Key, const char *Value);
  void arg(const char *Key, uint64_t Value);
  void arg(const char *Key, int64_t Value);
  void arg(const char *Key, unsigned Value) {
    arg(Key, static_cast<uint64_t>(Value));
  }
  void arg(const char *Key, int Value) {
    arg(Key, static_cast<int64_t>(Value));
  }
  void arg(const char *Key, double Value);
  void argBool(const char *Key, bool Value);

private:
  void begin();
  void end();

  const char *Name;
  const char *Category;
  void *Buffer = nullptr; ///< Owning ThreadBuffer when active.
  int64_t StartUs = 0;
  unsigned Depth = 0;
  std::string Args; ///< Preformatted JSON object body (no braces).
};

/// JSON-escapes and double-quotes \p S (shared with the exporters).
std::string jsonQuote(const std::string &S);

/// Formats a double as a JSON number; non-finite values become null.
std::string jsonNumber(double Value);

/// Renders every event recorded so far, merged across threads and sorted
/// by timestamp, as a Chrome trace_event JSON document.
std::string chromeTraceJson();

/// Writes chromeTraceJson() to \p Path; false (with \p Error filled when
/// non-null) when the file cannot be written.
bool writeChromeTrace(const std::string &Path, std::string *Error = nullptr);

/// Number of events currently buffered across all threads (tests).
size_t eventCount();

/// Drops all buffered events. The collection switches are left
/// untouched. Only safe while no spans are live; for tests and
/// long-running embedders that flush periodically.
void resetTrace();

} // namespace telemetry
} // namespace anek

#endif // ANEK_SUPPORT_TRACE_H
