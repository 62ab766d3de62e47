//===- Trace.h - Structured tracing for the inference pipeline --*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-aware, low-overhead structured tracing substrate (DESIGN.md,
/// "Telemetry"). The pipeline is instrumented with RAII spans, instant
/// events and counter samples; events land on per-thread buffers that are
/// merged at flush time, so tracing composes with `-jN` and observes the
/// run without perturbing it — inferred specs are byte-identical with
/// tracing on or off.
///
/// The overhead contract: when tracing is off (the default), every
/// instrumentation site costs exactly one relaxed atomic load (the level
/// check) and performs no allocation. Granularity is selected by
/// TraceLevel: `phase` records pipeline phases and aggregate metrics,
/// `method` adds one span per per-method unit of work (solve, PFG build,
/// IR lowering), `solver` adds per-iteration residual samples and
/// cascade-stage transitions.
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

/// Granularity of trace collection, coarse to fine. Each level includes
/// everything the previous one records.
enum class TraceLevel : int {
  Off = 0,    ///< No collection; instrumentation costs one relaxed load.
  Phase = 1,  ///< Pipeline phases + aggregate counters/histograms.
  Method = 2, ///< Plus one span per per-method unit of work.
  Solver = 3, ///< Plus per-iteration residuals and cascade transitions.
};

namespace detail {
/// The active level, read on every instrumentation site. Relaxed is
/// correct: the level only transitions while the pipeline is quiescent
/// (driver startup, test fixtures), and a stale read merely records or
/// skips one event.
extern std::atomic<int> ActiveLevel;
} // namespace detail

/// One relaxed atomic load: the whole cost of a disabled site.
inline bool enabled(TraceLevel Level) {
  return detail::ActiveLevel.load(std::memory_order_relaxed) >=
         static_cast<int>(Level);
}

/// True when any collection at all is active.
inline bool enabled() {
  return detail::ActiveLevel.load(std::memory_order_relaxed) != 0;
}

void setTraceLevel(TraceLevel Level);
TraceLevel traceLevel();

/// Renders "off"/"phase"/"method"/"solver".
const char *traceLevelName(TraceLevel Level);

/// Parses a trace level name; false on unknown input.
bool parseTraceLevel(const std::string &Name, TraceLevel &Out);

/// Microseconds since the process trace epoch (first telemetry use).
int64_t nowUs();

/// RAII span: records a Chrome complete event ("ph":"X") covering its
/// lifetime on the calling thread's buffer. Construction with an
/// insufficient level is inert — one relaxed load, no allocation, and
/// every other member call is a cheap no-op.
///
/// \p Name must be a string literal (it is stored by pointer). Dynamic
/// detail goes into args, guarded by active() so the argument expression
/// itself is not evaluated when tracing is off:
///
///   telemetry::Span S("infer.method", telemetry::TraceLevel::Method,
///                     "infer");
///   if (S.active())
///     S.arg("method", M->qualifiedName());
class Span {
public:
  Span(const char *Name, TraceLevel Level, const char *Category = "anek")
      : Name(Name), Category(Category) {
    if (enabled(Level))
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

/// Records an instant event ("ph":"i") when \p Level is enabled.
/// \p ArgsJson, when non-empty, is a preformatted JSON object body such
/// as "\"stage\":\"exact\"" — use jsonQuote for string values.
void instant(const char *Name, TraceLevel Level, const char *Category,
             std::string ArgsJson = std::string());

/// Records a counter sample ("ph":"C"): one named series point, e.g. the
/// BP residual at an iteration. \p SeriesKey names the sampled series.
void counterSample(const char *Name, TraceLevel Level, const char *Category,
                   const char *SeriesKey, double Value);

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

/// Drops all buffered events and resets span depths. The trace level is
/// left untouched. Only safe while no spans are live; for tests and
/// long-running embedders that flush periodically.
void resetTrace();

} // namespace telemetry
} // namespace anek

#endif // ANEK_SUPPORT_TRACE_H
