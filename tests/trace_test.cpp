//===- trace_test.cpp - Telemetry substrate and exporter tests -------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Covers the telemetry contract (DESIGN.md, "Telemetry"):
//   - span nesting depth and cross-thread buffer merging,
//   - Chrome trace_event JSON well-formedness (parsed back by a minimal
//     JSON reader compiled into this binary — no external tools),
//   - counter/gauge/histogram semantics and the anek-metrics-v1 schema,
//   - the off-mode cost contract: zero allocations and cheap checks,
//   - driver-level end-to-end: `anek infer --trace --metrics` emits a
//     valid trace spanning multiple pipeline phases and thread ids, and
//     inferred specs are byte-identical with telemetry on or off at
//     -j1 and -j4.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace anek;
using telemetry::TraceLevel;

//===----------------------------------------------------------------------===//
// Allocation counting: replaceable global new/delete so the off-mode
// zero-allocation contract is checked directly, not inferred. The nothrow
// forms are replaced too (std::stable_sort's temporary buffer uses them),
// so every allocation these deletes free came from malloc.
//===----------------------------------------------------------------------===//

static std::atomic<uint64_t> GlobalAllocations{0};

void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  GlobalAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new(size_t Size) {
  if (void *P = ::operator new(Size, std::nothrow))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size) { return ::operator new(Size); }
void *operator new[](size_t Size, const std::nothrow_t &Tag) noexcept {
  return ::operator new(Size, Tag);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// A minimal JSON reader, just enough to validate the exporters. Parses
// objects, arrays, strings (with escapes), numbers, booleans and null.
//===----------------------------------------------------------------------===//

struct Json {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double N = 0.0;
  std::string S;
  std::vector<Json> Items;
  std::map<std::string, Json> Fields;

  bool has(const std::string &Key) const { return Fields.count(Key) != 0; }
  const Json &at(const std::string &Key) const {
    static const Json Missing;
    auto It = Fields.find(Key);
    return It == Fields.end() ? Missing : It->second;
  }
};

class JsonReader {
public:
  explicit JsonReader(const std::string &Text) : Text(Text) {}

  bool parse(Json &Out) {
    Pos = 0;
    if (!value(Out))
      return false;
    skipWs();
    return Pos == Text.size(); // No trailing garbage.
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool value(Json &Out) {
    skipWs();
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object(Out);
    case '[':
      return array(Out);
    case '"':
      Out.K = Json::String;
      return string(Out.S);
    case 't':
      Out.K = Json::Bool;
      Out.B = true;
      return literal("true");
    case 'f':
      Out.K = Json::Bool;
      Out.B = false;
      return literal("false");
    case 'n':
      Out.K = Json::Null;
      return literal("null");
    default:
      return number(Out);
    }
  }

  bool object(Json &Out) {
    Out.K = Json::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return false;
      ++Pos;
      Json Val;
      if (!value(Val))
        return false;
      Out.Fields.emplace(std::move(Key), std::move(Val));
      skipWs();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array(Json &Out) {
    Out.K = Json::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      Json Val;
      if (!value(Val))
        return false;
      Out.Items.push_back(std::move(Val));
      skipWs();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return false;
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos++];
        switch (E) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'n': Out += '\n'; break;
        case 'r': Out += '\r'; break;
        case 't': Out += '\t'; break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return false;
          // Escaped control characters only round-trip as bytes here;
          // good enough for validating the exporter's output.
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else
              return false;
          }
          Out += static_cast<char>(Code & 0xFF);
          break;
        }
        default:
          return false;
        }
        continue;
      }
      // Raw control characters are invalid JSON — the exporter must
      // have escaped them.
      if (static_cast<unsigned char>(C) < 0x20)
        return false;
      Out += C;
    }
    return false;
  }

  bool number(Json &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    bool SawDigit = false;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(Text[Pos])))
        SawDigit = true;
      ++Pos;
    }
    if (!SawDigit)
      return false;
    Out.K = Json::Number;
    Out.N = std::strtod(Text.substr(Start, Pos - Start).c_str(), nullptr);
    return true;
  }
};

Json mustParse(const std::string &Text) {
  Json Doc;
  JsonReader Reader(Text);
  EXPECT_TRUE(Reader.parse(Doc)) << "invalid JSON:\n"
                                 << Text.substr(0, 2000);
  return Doc;
}

//===----------------------------------------------------------------------===//
// Fixture: every test starts from a clean buffer and a known level, and
// leaves collection off so tests stay independent.
//===----------------------------------------------------------------------===//

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    telemetry::setTraceLevel(TraceLevel::Off);
    telemetry::resetTrace();
    telemetry::resetMetricsForTest();
  }
  void TearDown() override {
    telemetry::setTraceLevel(TraceLevel::Off);
    telemetry::resetTrace();
  }
};

const std::vector<Json> &events(const Json &Doc) {
  EXPECT_EQ(Doc.K, Json::Object);
  EXPECT_TRUE(Doc.has("traceEvents"));
  return Doc.at("traceEvents").Items;
}

} // namespace

//===----------------------------------------------------------------------===//
// Span + exporter semantics
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, SpanNestingRecordsDepthAndDuration) {
  telemetry::setTraceLevel(TraceLevel::Solver);
  {
    telemetry::Span Outer("test.outer", TraceLevel::Phase, "test");
    ASSERT_TRUE(Outer.active());
    Outer.arg("label", "outer-span");
    {
      telemetry::Span Inner("test.inner", TraceLevel::Method, "test");
      ASSERT_TRUE(Inner.active());
      Inner.arg("n", 42u);
    }
    {
      telemetry::Span Inner2("test.inner2", TraceLevel::Solver, "test");
      ASSERT_TRUE(Inner2.active());
    }
  }
  EXPECT_EQ(telemetry::eventCount(), 3u);

  Json Doc = mustParse(telemetry::chromeTraceJson());
  EXPECT_EQ(Doc.at("otherData").at("schema").S, "anek-trace-v1");

  std::map<std::string, const Json *> ByName;
  for (const Json &E : events(Doc))
    if (E.at("ph").S == "X")
      ByName[E.at("name").S] = &E;
  ASSERT_EQ(ByName.size(), 3u);

  const Json &Outer = *ByName.at("test.outer");
  const Json &Inner = *ByName.at("test.inner");
  EXPECT_EQ(Outer.at("cat").S, "test");
  EXPECT_EQ(Outer.at("args").at("depth").N, 0.0);
  EXPECT_EQ(Inner.at("args").at("depth").N, 1.0);
  EXPECT_EQ(Inner.at("args").at("n").N, 42.0);
  EXPECT_EQ(Outer.at("args").at("label").S, "outer-span");

  // The outer complete event brackets the inner one.
  EXPECT_LE(Outer.at("ts").N, Inner.at("ts").N);
  EXPECT_GE(Outer.at("ts").N + Outer.at("dur").N,
            Inner.at("ts").N + Inner.at("dur").N);
}

TEST_F(TraceTest, LevelGatingMakesSpansInert) {
  telemetry::setTraceLevel(TraceLevel::Phase);
  {
    telemetry::Span Phase("test.phase", TraceLevel::Phase, "test");
    telemetry::Span Method("test.method", TraceLevel::Method, "test");
    telemetry::Span Solver("test.solver", TraceLevel::Solver, "test");
    EXPECT_TRUE(Phase.active());
    EXPECT_FALSE(Method.active());
    EXPECT_FALSE(Solver.active());
  }
  EXPECT_EQ(telemetry::eventCount(), 1u);
  // Inert siblings must not have disturbed nesting depth accounting.
  Json Doc = mustParse(telemetry::chromeTraceJson());
  for (const Json &E : events(Doc))
    if (E.at("ph").S == "X")
      EXPECT_EQ(E.at("args").at("depth").N, 0.0);
}

TEST_F(TraceTest, CloseRecordsEarlyAndIsIdempotent) {
  telemetry::setTraceLevel(TraceLevel::Phase);
  telemetry::Span S("test.closed", TraceLevel::Phase, "test");
  ASSERT_TRUE(S.active());
  S.close();
  EXPECT_FALSE(S.active());
  S.close(); // No-op, must not double-record.
  EXPECT_EQ(telemetry::eventCount(), 1u);
}

TEST_F(TraceTest, InstantAndCounterSampleEvents) {
  telemetry::setTraceLevel(TraceLevel::Solver);
  telemetry::instant("test.instant", TraceLevel::Solver, "test",
                     "\"stage\":" + telemetry::jsonQuote("exact"));
  telemetry::counterSample("test.series", TraceLevel::Solver, "test",
                           "residual", 0.125);
  Json Doc = mustParse(telemetry::chromeTraceJson());
  bool SawInstant = false, SawCounter = false;
  for (const Json &E : events(Doc)) {
    if (E.at("ph").S == "i" && E.at("name").S == "test.instant") {
      SawInstant = true;
      EXPECT_EQ(E.at("s").S, "t");
      EXPECT_EQ(E.at("args").at("stage").S, "exact");
    }
    if (E.at("ph").S == "C" && E.at("name").S == "test.series") {
      SawCounter = true;
      EXPECT_EQ(E.at("args").at("residual").N, 0.125);
    }
  }
  EXPECT_TRUE(SawInstant);
  EXPECT_TRUE(SawCounter);
}

TEST_F(TraceTest, JsonQuoteEscapesControlAndSpecialCharacters) {
  std::string Nasty = "a\"b\\c\nd\te\x01f";
  std::string Quoted = telemetry::jsonQuote(Nasty);
  Json Doc;
  JsonReader Reader(Quoted);
  ASSERT_TRUE(Reader.parse(Doc)) << Quoted;
  EXPECT_EQ(Doc.K, Json::String);
  EXPECT_EQ(Doc.S, Nasty);
  // Non-finite numbers must not leak "inf"/"nan" tokens into JSON.
  EXPECT_EQ(telemetry::jsonNumber(
                std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(telemetry::jsonNumber(std::nan("")), "null");
}

//===----------------------------------------------------------------------===//
// Cross-thread merging
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, ThreadBuffersMergeWithDistinctStableIds) {
  telemetry::setTraceLevel(TraceLevel::Method);
  constexpr unsigned Workers = 3;
  {
    telemetry::Span Main("test.main", TraceLevel::Phase, "test");
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W != Workers; ++W)
      Threads.emplace_back([W] {
        for (int I = 0; I != 4; ++I) {
          telemetry::Span S("test.worker", TraceLevel::Method, "test");
          if (S.active())
            S.arg("worker", W);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(telemetry::eventCount(), 1u + Workers * 4u);

  Json Doc = mustParse(telemetry::chromeTraceJson());
  std::set<double> Tids;
  double LastTs = -1.0;
  unsigned Complete = 0;
  for (const Json &E : events(Doc)) {
    if (E.at("ph").S != "X")
      continue;
    ++Complete;
    Tids.insert(E.at("tid").N);
    // The merged stream is sorted by start timestamp.
    EXPECT_GE(E.at("ts").N, LastTs);
    LastTs = E.at("ts").N;
    // Depth is per-thread: worker spans are all top-level even though
    // they ran inside the main thread's span.
    if (E.at("name").S == "test.worker")
      EXPECT_EQ(E.at("args").at("depth").N, 0.0);
  }
  EXPECT_EQ(Complete, 1u + Workers * 4u);
  EXPECT_EQ(Tids.size(), 1u + Workers);

  // Every recording thread has a thread_name metadata event.
  std::set<double> NamedTids;
  for (const Json &E : events(Doc))
    if (E.at("ph").S == "M" && E.at("name").S == "thread_name")
      NamedTids.insert(E.at("tid").N);
  EXPECT_EQ(NamedTids, Tids);
}

//===----------------------------------------------------------------------===//
// Metrics semantics + schema
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, CounterGaugeHistogramSemantics) {
  telemetry::Counter &C = telemetry::counter("test.counter");
  C.add();
  C.add(9);
  EXPECT_EQ(C.value(), 10u);
  // Lookup by name returns the same object.
  EXPECT_EQ(&C, &telemetry::counter("test.counter"));

  telemetry::Gauge &G = telemetry::gauge("test.gauge");
  G.set(1.5);
  G.set(-2.5);
  EXPECT_EQ(G.value(), -2.5);

  telemetry::Histogram &H = telemetry::histogram("test.hist");
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0.0); // Empty histograms export zeros.
  H.record(2.0);
  H.record(8.0);
  H.record(-1.0);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 9.0);
  EXPECT_EQ(H.min(), -1.0);
  EXPECT_EQ(H.max(), 8.0);
  EXPECT_EQ(H.mean(), 3.0);

  // Concurrent recording is lock-free-safe; min/max/sum stay exact for
  // these integral samples.
  telemetry::Histogram &Shared = telemetry::histogram("test.hist.mt");
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&Shared] {
      for (int I = 0; I != 1000; ++I)
        Shared.record(1.0);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Shared.count(), 4000u);
  EXPECT_EQ(Shared.sum(), 4000.0);

  // Reset zeroes values but keeps references valid.
  telemetry::resetMetricsForTest();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(H.count(), 0u);
  C.add(3);
  EXPECT_EQ(telemetry::counter("test.counter").value(), 3u);
}

TEST_F(TraceTest, MetricsJsonSchemaSelfCheck) {
  telemetry::counter("test.schema.counter").add(7);
  telemetry::gauge("test.schema.gauge").set(0.5);
  telemetry::histogram("test.schema.hist").record(4.0);

  Json Doc = mustParse(telemetry::metricsJson());
  ASSERT_EQ(Doc.K, Json::Object);
  EXPECT_EQ(Doc.at("schema").S, "anek-metrics-v1");
  ASSERT_TRUE(Doc.has("traceLevel"));
  ASSERT_TRUE(Doc.has("counters"));
  ASSERT_TRUE(Doc.has("gauges"));
  ASSERT_TRUE(Doc.has("histograms"));
  EXPECT_EQ(Doc.at("counters").at("test.schema.counter").N, 7.0);
  EXPECT_EQ(Doc.at("gauges").at("test.schema.gauge").N, 0.5);
  const Json &H = Doc.at("histograms").at("test.schema.hist");
  for (const char *Key : {"count", "sum", "min", "max", "mean"})
    EXPECT_TRUE(H.has(Key)) << Key;
  EXPECT_EQ(H.at("count").N, 1.0);
  EXPECT_EQ(H.at("mean").N, 4.0);

  // Stable key order: a re-render is byte-identical.
  EXPECT_EQ(telemetry::metricsJson(), telemetry::metricsJson());
}

TEST_F(TraceTest, HistogramPercentilesExportOrderedEstimates) {
  // 100 samples 1..100: the log-scale buckets give percentile estimates
  // with at most one-octave error, and the estimates must be ordered and
  // clamped into [min, max].
  telemetry::Histogram &H = telemetry::histogram("test.pctl");
  for (int I = 1; I <= 100; ++I)
    H.record(static_cast<double>(I));
  double P50 = H.percentile(0.50);
  double P95 = H.percentile(0.95);
  double P99 = H.percentile(0.99);
  EXPECT_GE(P50, H.min());
  EXPECT_LE(P50, P95);
  EXPECT_LE(P95, P99);
  EXPECT_LE(P99, H.max());
  // One-octave accuracy: the true p50 is 50, so the estimate lives in
  // [25, 100]; the true p99 is 99, estimate in [50, 100] (max-clamped).
  EXPECT_GE(P50, 25.0);
  EXPECT_LE(P50, 100.0);
  EXPECT_GE(P99, 50.0);

  // The exporter ships the estimates under pinned keys — this is the
  // anek-metrics-v1 histogram schema `anek report` consumes.
  Json Doc = mustParse(telemetry::metricsJson());
  const Json &HJ = Doc.at("histograms").at("test.pctl");
  for (const char *Key :
       {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"})
    EXPECT_TRUE(HJ.has(Key)) << Key;
  EXPECT_EQ(HJ.at("p50").N, P50);
  EXPECT_EQ(HJ.at("p95").N, P95);
  EXPECT_EQ(HJ.at("p99").N, P99);

  // Empty histograms export zero percentiles, not NaNs.
  telemetry::histogram("test.pctl.empty");
  Json EmptyDoc = mustParse(telemetry::metricsJson());
  const Json &Empty = EmptyDoc.at("histograms").at("test.pctl.empty");
  EXPECT_EQ(Empty.at("p50").N, 0.0);
  EXPECT_EQ(Empty.at("p99").N, 0.0);
}

//===----------------------------------------------------------------------===//
// The off-mode cost contract
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, OffModeAllocatesNothing) {
  telemetry::setTraceLevel(TraceLevel::Off);
  uint64_t Before = GlobalAllocations.load(std::memory_order_relaxed);
  for (int I = 0; I != 10000; ++I) {
    telemetry::Span S("test.off", TraceLevel::Phase, "test");
    EXPECT_FALSE(S.active());
    S.arg("ignored", 1u);
    telemetry::instant("test.off.instant", TraceLevel::Phase, "test");
    telemetry::counterSample("test.off.series", TraceLevel::Solver, "test",
                             "v", 1.0);
    if (telemetry::enabled(TraceLevel::Phase))
      ADD_FAILURE() << "enabled() true at level off";
  }
  uint64_t After = GlobalAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before) << "disabled telemetry must not allocate";
  EXPECT_EQ(telemetry::eventCount(), 0u);
}

TEST_F(TraceTest, OffModeIsCheap) {
  // A deliberately generous guard (engineered cost: one relaxed load per
  // site): 2M disabled spans must finish in well under a second even on
  // a loaded CI machine. Catches accidental locks or allocations, not
  // nanosecond drift — bench_solver_kernels guards the fine-grained
  // throughput contract.
  telemetry::setTraceLevel(TraceLevel::Off);
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I != 2000000; ++I) {
    telemetry::Span S("test.cheap", TraceLevel::Phase, "test");
    S.arg("k", 1u);
  }
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EXPECT_LT(Seconds, 2.0) << "disabled spans cost too much";
}

//===----------------------------------------------------------------------===//
// Driver-level end-to-end
//===----------------------------------------------------------------------===//

namespace {

struct ToolRun {
  int Exit = -1;
  std::string MaskedOutput;
};

/// Runs the real `anek` binary with wall-clock substrings masked, the
/// same contract determinism_test uses.
ToolRun runTool(const std::string &ArgLine) {
  ToolRun R;
  fs::path Capture = fs::temp_directory_path() /
                     ("anek_trace_" + std::to_string(::getpid()) + ".out");
  std::string Cmd = std::string(ANEK_TOOL_PATH) + " " + ArgLine + " > " +
                    Capture.string() + " 2>&1";
  int RawStatus = std::system(Cmd.c_str());
  std::ifstream In(Capture);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  static const std::regex TimeRe("[0-9]+\\.[0-9]+s");
  R.MaskedOutput = std::regex_replace(Buffer.str(), TimeRe, "TIMEs");
  std::error_code Ignored;
  fs::remove(Capture, Ignored);
  if (RawStatus != -1 && WIFEXITED(RawStatus))
    R.Exit = WEXITSTATUS(RawStatus);
  return R;
}

std::string slurp(const fs::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Temp file that cleans up after itself.
struct TempFile {
  fs::path Path;
  explicit TempFile(const std::string &Suffix)
      : Path(fs::temp_directory_path() /
             ("anek_trace_" + std::to_string(::getpid()) + Suffix)) {}
  ~TempFile() {
    std::error_code Ignored;
    fs::remove(Path, Ignored);
  }
};

} // namespace

TEST_F(TraceTest, DriverEmitsValidTraceAndMetrics) {
  TempFile Trace("_e2e_trace.json");
  TempFile Metrics("_e2e_metrics.json");
  ToolRun R = runTool("infer --example spreadsheet --trace=" +
                      Trace.Path.string() +
                      " --metrics=" + Metrics.Path.string() + " -j4");
  ASSERT_EQ(R.Exit, 0) << R.MaskedOutput;

  // The trace is well-formed Chrome JSON covering several pipeline
  // phases on several threads.
  Json TraceDoc = mustParse(slurp(Trace.Path));
  EXPECT_EQ(TraceDoc.at("otherData").at("schema").S, "anek-trace-v1");
  EXPECT_EQ(TraceDoc.at("otherData").at("traceLevel").S, "solver");
  std::set<std::string> Categories;
  std::set<double> Tids;
  for (const Json &E : events(TraceDoc)) {
    if (E.at("ph").S == "M")
      continue;
    Tids.insert(E.at("tid").N);
    if (E.at("ph").S == "X")
      Categories.insert(E.at("cat").S);
  }
  EXPECT_GE(Categories.size(), 4u)
      << "trace should span the pipeline, not one layer";
  EXPECT_TRUE(Categories.count("frontend"));
  EXPECT_TRUE(Categories.count("solver"));
  EXPECT_TRUE(Categories.count("infer"));
  EXPECT_GE(Tids.size(), 2u) << "-j4 must record from worker threads";

  // The metrics document carries per-solver iteration/residual stats.
  Json MetricsDoc = mustParse(slurp(Metrics.Path));
  EXPECT_EQ(MetricsDoc.at("schema").S, "anek-metrics-v1");
  EXPECT_GE(MetricsDoc.at("counters").at("solver.bp.solves").N, 1.0);
  const Json &Iters =
      MetricsDoc.at("histograms").at("solver.bp.iterations");
  ASSERT_TRUE(Iters.has("count"));
  EXPECT_GE(Iters.at("count").N, 1.0);
  EXPECT_TRUE(MetricsDoc.at("histograms").has("solver.bp.residual"));
}

TEST_F(TraceTest, DriverSplitsFallbacksByCascadeExit) {
  // Every fresh solve of the file example misses the BP tolerance and
  // ends near convergence, so all 12 fallback picks (replays included)
  // leave the cascade there. The injected non-convergence fault skips
  // that exit, and every graph is too large to enumerate, so all 12 keep
  // their BP beliefs. The footer and the metrics say the same.
  struct Case {
    const char *Flags;
    const char *Footer;
    double NearConverged;
  };
  for (const Case &C :
       {Case{"", "12 fallback solve(s) (12 near-converged bp, 0 exact, "
                 "0 kept degraded)",
             12.0},
        Case{" --fault bp-nonconverge",
             "12 fallback solve(s) (0 near-converged bp, 0 exact, "
             "12 kept degraded)",
             0.0}}) {
    TempFile Metrics("_cascade_metrics.json");
    ToolRun R = runTool(std::string("infer --example file") + C.Flags +
                        " --metrics=" + Metrics.Path.string());
    ASSERT_EQ(R.Exit, 0) << R.MaskedOutput;
    EXPECT_NE(R.MaskedOutput.find(C.Footer), std::string::npos)
        << R.MaskedOutput;
    Json Counters = mustParse(slurp(Metrics.Path)).at("counters");
    EXPECT_EQ(Counters.at("infer.fallback_solves").N, 12.0);
    EXPECT_EQ(Counters.at("cascade.exit.near_converged_bp").N,
              C.NearConverged);
    EXPECT_EQ(Counters.at("cascade.exit.near_converged_bp").N +
                  Counters.at("cascade.exit.exact").N +
                  Counters.at("cascade.exit.kept_degraded").N,
              12.0);
  }
}

TEST_F(TraceTest, DriverSpecsAreByteIdenticalWithTelemetry) {
  for (const char *Jobs : {"-j1", "-j4"}) {
    ToolRun Plain =
        runTool(std::string("infer --example spreadsheet --report ") + Jobs);
    ASSERT_EQ(Plain.Exit, 0) << Plain.MaskedOutput;

    TempFile Trace("_det_trace.json");
    TempFile Metrics("_det_metrics.json");
    ToolRun Traced = runTool(
        std::string("infer --example spreadsheet --report ") + Jobs +
        " --trace=" + Trace.Path.string() +
        " --metrics=" + Metrics.Path.string());
    ASSERT_EQ(Traced.Exit, 0) << Traced.MaskedOutput;
    EXPECT_EQ(Plain.MaskedOutput, Traced.MaskedOutput)
        << "telemetry must not perturb inferred specs (" << Jobs << ")";
  }
}

TEST_F(TraceTest, DriverRejectsBadTraceLevel) {
  ToolRun R = runTool("infer --example spreadsheet --trace-level=verbose");
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.MaskedOutput.find("bad trace level"), std::string::npos);
}

TEST_F(TraceTest, DriverReportDigestsRunArtifacts) {
  // A real run's artifacts, fed back through `anek report`: the text
  // profile names its sections, and --json emits a parseable
  // anek-report-v1 document whose numbers reflect the artifacts.
  TempFile Trace("_rep_trace.json");
  TempFile Metrics("_rep_metrics.json");
  ToolRun Run = runTool("infer --example spreadsheet -j2 --trace=" +
                        Trace.Path.string() +
                        " --metrics=" + Metrics.Path.string());
  ASSERT_EQ(Run.Exit, 0) << Run.MaskedOutput;

  ToolRun Text = runTool("report --trace " + Trace.Path.string() +
                         " --metrics " + Metrics.Path.string());
  ASSERT_EQ(Text.Exit, 0) << Text.MaskedOutput;
  EXPECT_NE(Text.MaskedOutput.find("anek run profile"), std::string::npos);
  EXPECT_NE(Text.MaskedOutput.find("phases (top-level spans)"),
            std::string::npos);
  EXPECT_NE(Text.MaskedOutput.find("top "), std::string::npos);

  ToolRun JsonRun = runTool("report --json --top 3 --trace " +
                            Trace.Path.string() +
                            " --metrics " + Metrics.Path.string());
  ASSERT_EQ(JsonRun.Exit, 0) << JsonRun.MaskedOutput;
  Json Doc = mustParse(JsonRun.MaskedOutput);
  EXPECT_EQ(Doc.at("schema").S, "anek-report-v1");
  EXPECT_GE(Doc.at("trace").at("events").N, 1.0);
  EXPECT_LE(Doc.at("trace").at("top_spans").Items.size(), 3u);
  ASSERT_TRUE(Doc.has("metrics"));
  EXPECT_GE(Doc.at("metrics").at("method_run_us").N, 0.0);
}

TEST_F(TraceTest, DriverReportErrorsFollowTheExitCodeContract) {
  // No artifact at all is a usage error (exit 2, usage text); an
  // artifact path that does not exist or does not parse is a
  // diagnostics-level failure (exit 1), never a crash.
  ToolRun None = runTool("report");
  EXPECT_EQ(None.Exit, 2);
  EXPECT_NE(None.MaskedOutput.find("usage"), std::string::npos);

  ToolRun Missing = runTool("report --trace /nonexistent/trace.json");
  EXPECT_EQ(Missing.Exit, 1);

  TempFile Garbage("_rep_garbage.json");
  {
    std::ofstream Out(Garbage.Path);
    Out << "{\"traceEvents\": [";
  }
  ToolRun Malformed = runTool("report --trace " + Garbage.Path.string());
  EXPECT_EQ(Malformed.Exit, 1);
  EXPECT_NE(Malformed.MaskedOutput.find("malformed"), std::string::npos);

  // --top takes digits only, 1 <= N <= UINT_MAX, like --jobs: a sign, a
  // blank, zero or a count that does not fit is a usage error, even
  // against a trace that would render.
  TempFile Trace("_rep_top_trace.json");
  ASSERT_EQ(runTool("infer --example file --trace=" + Trace.Path.string())
                .Exit,
            0);
  for (const char *Top : {"-1", "4294967296", "' 3'", "0"}) {
    ToolRun Bad = runTool("report --trace " + Trace.Path.string() +
                          " --top " + Top);
    EXPECT_EQ(Bad.Exit, 2) << Top;
    EXPECT_NE(Bad.MaskedOutput.find("bad top-k"), std::string::npos)
        << Bad.MaskedOutput;
  }
}
