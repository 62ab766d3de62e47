//===- Trace.cpp - Structured tracing for the inference pipeline -----------===//

#include "support/Trace.h"

#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

using namespace anek;
using namespace anek::telemetry;

std::atomic<bool> anek::telemetry::detail::Tracing{false};
std::atomic<bool> anek::telemetry::detail::Metering{false};

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide trace epoch: timestamps are microseconds since the first
/// telemetry use, so they stay small and positive.
Clock::time_point traceEpoch() {
  static const Clock::time_point Epoch = Clock::now();
  return Epoch;
}

/// One recorded span (a Chrome complete event). Name/Category are string
/// literals (stored by pointer); dynamic detail lives in the preformatted
/// Args body.
struct TraceEvent {
  const char *Name = nullptr;
  const char *Category = nullptr;
  int64_t TsUs = 0;
  int64_t DurUs = 0;
  unsigned Tid = 0;
  unsigned Depth = 0;
  std::string Args; ///< JSON object body without braces; may be empty.
};

/// Per-thread event buffer. Events are appended by the owning thread
/// under Mutex (flush reads from other threads take the same lock);
/// Depth is touched by the owning thread only.
struct ThreadBuffer {
  explicit ThreadBuffer(unsigned Tid) : Tid(Tid) {}
  const unsigned Tid;
  unsigned Depth = 0;
  std::mutex Mutex;
  std::vector<TraceEvent> Events;
};

/// Registry owning every thread's buffer. Buffers outlive their threads
/// (a pool worker's events survive pool destruction until flush).
struct TraceRegistry {
  std::mutex Mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
};

TraceRegistry &registry() {
  static TraceRegistry *R = new TraceRegistry(); // Never destroyed:
  return *R; // buffers must stay valid through static teardown.
}

ThreadBuffer &localBuffer() {
  thread_local ThreadBuffer *Buf = [] {
    TraceRegistry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    R.Buffers.push_back(std::make_unique<ThreadBuffer>(
        static_cast<unsigned>(R.Buffers.size())));
    return R.Buffers.back().get();
  }();
  return *Buf;
}

void appendEvent(ThreadBuffer &Buf, TraceEvent Event) {
  std::lock_guard<std::mutex> Lock(Buf.Mutex);
  Buf.Events.push_back(std::move(Event));
}

void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatStr("\\u%04x", C);
      else
        Out += C;
    }
  }
}

} // namespace

void anek::telemetry::setCollection(bool Trace, bool Metrics) {
  // Touch the epoch so timestamps are relative to enablement, not to an
  // arbitrary later first event.
  traceEpoch();
  detail::Tracing.store(Trace, std::memory_order_relaxed);
  detail::Metering.store(Metrics, std::memory_order_relaxed);
}

int64_t anek::telemetry::nowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               traceEpoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

void Span::begin() {
  ThreadBuffer &Buf = localBuffer();
  Buffer = &Buf;
  Depth = Buf.Depth++;
  StartUs = nowUs();
}

void Span::end() {
  ThreadBuffer &Buf = *static_cast<ThreadBuffer *>(Buffer);
  TraceEvent Event;
  Event.Name = Name;
  Event.Category = Category;
  Event.TsUs = StartUs;
  Event.DurUs = nowUs() - StartUs;
  Event.Tid = Buf.Tid;
  Event.Depth = Depth;
  Event.Args = std::move(Args);
  // Buffered until the run ends: keep the bytes, not the append slack.
  Event.Args.shrink_to_fit();
  --Buf.Depth;
  appendEvent(Buf, std::move(Event));
}

void Span::arg(const char *Key, const std::string &Value) {
  if (!Buffer)
    return;
  if (!Args.empty())
    Args += ',';
  Args += '"';
  appendJsonEscaped(Args, Key);
  Args += "\":";
  Args += jsonQuote(Value);
}

void Span::arg(const char *Key, const char *Value) {
  arg(Key, std::string(Value));
}

void Span::arg(const char *Key, uint64_t Value) {
  if (!Buffer)
    return;
  if (!Args.empty())
    Args += ',';
  Args += formatStr("\"%s\":%llu", Key,
                    static_cast<unsigned long long>(Value));
}

void Span::arg(const char *Key, int64_t Value) {
  if (!Buffer)
    return;
  if (!Args.empty())
    Args += ',';
  Args += formatStr("\"%s\":%lld", Key, static_cast<long long>(Value));
}

void Span::arg(const char *Key, double Value) {
  if (!Buffer)
    return;
  if (!Args.empty())
    Args += ',';
  Args += '"';
  Args += Key;
  Args += "\":";
  Args += jsonNumber(Value);
}

void Span::argBool(const char *Key, bool Value) {
  if (!Buffer)
    return;
  if (!Args.empty())
    Args += ',';
  Args += formatStr("\"%s\":%s", Key, Value ? "true" : "false");
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

std::string anek::telemetry::jsonQuote(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  appendJsonEscaped(Out, S);
  Out += '"';
  return Out;
}

std::string anek::telemetry::jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  return formatStr("%.17g", Value);
}

std::string anek::telemetry::chromeTraceJson() {
  // Snapshot every buffer under its lock; threads may still be running.
  std::vector<TraceEvent> Events;
  {
    TraceRegistry &R = registry();
    std::lock_guard<std::mutex> RegistryLock(R.Mutex);
    for (const auto &Buf : R.Buffers) {
      std::lock_guard<std::mutex> BufLock(Buf->Mutex);
      Events.insert(Events.end(), Buf->Events.begin(), Buf->Events.end());
    }
  }
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.TsUs != B.TsUs)
                       return A.TsUs < B.TsUs;
                     return A.Tid < B.Tid;
                   });

  unsigned MaxTid = 0;
  for (const TraceEvent &E : Events)
    MaxTid = std::max(MaxTid, E.Tid);

  std::string Out;
  Out += "{\n\"otherData\":{\"schema\":\"anek-trace-v1\"},\n"
         "\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  bool First = true;
  auto Emit = [&](const std::string &Line) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += Line;
  };
  // Process/thread-name metadata so Perfetto labels the lanes.
  if (!Events.empty()) {
    Emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"anek\"}}");
    for (unsigned Tid = 0; Tid <= MaxTid; ++Tid)
      Emit(formatStr("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                     Tid, Tid == 0 ? "anek-main" :
                                     formatStr("anek-worker-%u", Tid).c_str()));
  }
  for (const TraceEvent &E : Events) {
    std::string Line = "{\"name\":";
    Line += jsonQuote(E.Name);
    Line += ",\"cat\":";
    Line += jsonQuote(E.Category);
    Line += formatStr(",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"depth\":%u",
                      static_cast<long long>(E.TsUs),
                      static_cast<long long>(E.DurUs), E.Tid, E.Depth);
    if (!E.Args.empty()) {
      Line += ',';
      Line += E.Args;
    }
    Line += "}}";
    Emit(Line);
  }
  Out += "\n]}\n";
  return Out;
}

bool anek::telemetry::writeChromeTrace(const std::string &Path,
                                       std::string *Error) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << chromeTraceJson();
  Out.flush();
  if (!Out) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

size_t anek::telemetry::eventCount() {
  TraceRegistry &R = registry();
  size_t Count = 0;
  std::lock_guard<std::mutex> RegistryLock(R.Mutex);
  for (const auto &Buf : R.Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    Count += Buf->Events.size();
  }
  return Count;
}

void anek::telemetry::resetTrace() {
  TraceRegistry &R = registry();
  std::lock_guard<std::mutex> RegistryLock(R.Mutex);
  for (const auto &Buf : R.Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    Buf->Events.clear();
  }
}
