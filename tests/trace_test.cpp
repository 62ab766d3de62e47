//===- trace_test.cpp - Telemetry substrate and exporter tests -------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Covers the telemetry contract (DESIGN.md, "Telemetry"):
//   - span nesting depth and cross-thread buffer merging,
//   - Chrome trace_event JSON well-formedness (parsed back with
//     support/Json.h — no external tools),
//   - counter/gauge/histogram semantics and the anek-metrics-v1 schema,
//   - collection follows the artifacts: spans record only when the run
//     writes a trace, metrics only when it writes a metrics document,
//   - the off-mode cost contract: zero allocations (counted by the
//     replaced global allocator in trace_test_alloc.cpp) and cheap
//     checks,
//   - driver-level end-to-end: `--trace --metrics` on PMD emits a valid
//     spans-only trace spanning multiple pipeline phases and thread ids,
//     whose fallback picks carry the cascade's reason, and inferred
//     specs are byte-identical with telemetry on or off at -j1 and -j4.
//
//===----------------------------------------------------------------------===//

#include "MaskTimings.h"
#include "corpus/ExampleSources.h"
#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace anek;
using json::Value;

/// Every allocation through the global operator new, counted by the
/// replacement allocator in trace_test_alloc.cpp.
extern std::atomic<uint64_t> GlobalAllocations;

namespace {

namespace fs = std::filesystem;

Value mustParse(const std::string &Text) {
  Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, Doc, &Error))
      << Error << " in:\n" << Text.substr(0, 2000);
  return Doc;
}

//===----------------------------------------------------------------------===//
// Fixture: every test starts from clean buffers with collection off, and
// leaves collection off so tests stay independent.
//===----------------------------------------------------------------------===//

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    telemetry::setCollection(false, false);
    telemetry::resetTrace();
    telemetry::resetMetricsForTest();
  }
  void TearDown() override {
    telemetry::setCollection(false, false);
    telemetry::resetTrace();
  }
};

const std::vector<Value> &events(const Value &Doc) {
  EXPECT_EQ(Doc.K, Value::Object);
  EXPECT_TRUE(Doc.has("traceEvents"));
  return Doc.at("traceEvents").Items;
}

} // namespace

//===----------------------------------------------------------------------===//
// Span + exporter semantics
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, SpanNestingRecordsDepthAndDuration) {
  telemetry::setCollection(true, false);
  {
    telemetry::Span Outer("test.outer", "test");
    ASSERT_TRUE(Outer.active());
    Outer.arg("label", "outer-span");
    {
      telemetry::Span Inner("test.inner", "test");
      ASSERT_TRUE(Inner.active());
      Inner.arg("n", 42u);
    }
    {
      telemetry::Span Inner2("test.inner2", "test");
      ASSERT_TRUE(Inner2.active());
    }
  }
  EXPECT_EQ(telemetry::eventCount(), 3u);

  Value Doc = mustParse(telemetry::chromeTraceJson());
  EXPECT_EQ(Doc.at("otherData").at("schema").S, "anek-trace-v1");

  std::map<std::string, const Value *> ByName;
  for (const Value &E : events(Doc))
    if (E.at("ph").S == "X")
      ByName[E.at("name").S] = &E;
  ASSERT_EQ(ByName.size(), 3u);

  const Value &Outer = *ByName.at("test.outer");
  const Value &Inner = *ByName.at("test.inner");
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

TEST_F(TraceTest, CollectionFollowsTheArtifacts) {
  // Spans record exactly when the run writes a trace, metrics exactly
  // when it writes a metrics document: a metrics-only run buffers no
  // trace event, and a trace-only run counts nothing.
  auto RunSpreadsheet = [] {
    DiagnosticEngine Diags;
    std::unique_ptr<Program> Prog =
        parseAndAnalyze(iteratorApiSource() + spreadsheetSource(), Diags);
    ASSERT_TRUE(Prog != nullptr) << Diags.str();
    InferOptions Opts;
    Opts.Parallelism = 1;
    runAnekInfer(*Prog, Opts);
  };
  telemetry::Counter &Solves = telemetry::counter("solver.bp.solves");

  telemetry::setCollection(false, true);
  RunSpreadsheet();
  EXPECT_EQ(telemetry::eventCount(), 0u);
  EXPECT_GT(Solves.value(), 0u);

  telemetry::resetMetricsForTest();
  telemetry::setCollection(true, false);
  RunSpreadsheet();
  EXPECT_GT(telemetry::eventCount(), 0u);
  EXPECT_EQ(Solves.value(), 0u);
}

TEST_F(TraceTest, CloseRecordsEarlyAndIsIdempotent) {
  telemetry::setCollection(true, false);
  telemetry::Span S("test.closed", "test");
  ASSERT_TRUE(S.active());
  S.close();
  EXPECT_FALSE(S.active());
  S.close(); // No-op, must not double-record.
  EXPECT_EQ(telemetry::eventCount(), 1u);
}

TEST_F(TraceTest, JsonQuoteEscapesControlAndSpecialCharacters) {
  std::string Nasty = "a\"b\\c\nd\te\x01f";
  std::string Quoted = telemetry::jsonQuote(Nasty);
  Value Doc;
  ASSERT_TRUE(json::parse(Quoted, Doc)) << Quoted;
  EXPECT_EQ(Doc.K, Value::String);
  EXPECT_EQ(Doc.S, Nasty);
  // The reader rejects raw control bytes, so the round trip above only
  // passes when jsonQuote escaped every one of them.
  EXPECT_FALSE(json::parse("\"a\nb\"", Doc));
  EXPECT_FALSE(json::parse("\"a\x01z\"", Doc));
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
  telemetry::setCollection(true, false);
  constexpr unsigned Workers = 3;
  {
    telemetry::Span Main("test.main", "test");
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W != Workers; ++W)
      Threads.emplace_back([W] {
        for (int I = 0; I != 4; ++I) {
          telemetry::Span S("test.worker", "test");
          if (S.active())
            S.arg("worker", W);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(telemetry::eventCount(), 1u + Workers * 4u);

  Value Doc = mustParse(telemetry::chromeTraceJson());
  std::set<double> Tids;
  double LastTs = -1.0;
  unsigned Complete = 0;
  for (const Value &E : events(Doc)) {
    if (E.at("ph").S != "X")
      continue;
    ++Complete;
    Tids.insert(E.at("tid").N);
    // The merged stream is sorted by start timestamp.
    EXPECT_GE(E.at("ts").N, LastTs);
    LastTs = E.at("ts").N;
    // Depth is per-thread: worker spans are all top-level even though
    // they ran inside the main thread's span.
    if (E.at("name").S == "test.worker") {
      EXPECT_EQ(E.at("args").at("depth").N, 0.0);
    }
  }
  EXPECT_EQ(Complete, 1u + Workers * 4u);
  EXPECT_EQ(Tids.size(), 1u + Workers);

  // Every recording thread has a thread_name metadata event.
  std::set<double> NamedTids;
  for (const Value &E : events(Doc))
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

  Value Doc = mustParse(telemetry::metricsJson());
  ASSERT_EQ(Doc.K, Value::Object);
  EXPECT_EQ(Doc.at("schema").S, "anek-metrics-v1");
  ASSERT_TRUE(Doc.has("counters"));
  ASSERT_TRUE(Doc.has("gauges"));
  ASSERT_TRUE(Doc.has("histograms"));
  EXPECT_EQ(Doc.at("counters").at("test.schema.counter").N, 7.0);
  EXPECT_EQ(Doc.at("gauges").at("test.schema.gauge").N, 0.5);
  const Value &H = Doc.at("histograms").at("test.schema.hist");
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
  Value Doc = mustParse(telemetry::metricsJson());
  const Value &HJ = Doc.at("histograms").at("test.pctl");
  for (const char *Key :
       {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"})
    EXPECT_TRUE(HJ.has(Key)) << Key;
  EXPECT_EQ(HJ.at("p50").N, P50);
  EXPECT_EQ(HJ.at("p95").N, P95);
  EXPECT_EQ(HJ.at("p99").N, P99);

  // Empty histograms export zero percentiles, not NaNs.
  telemetry::histogram("test.pctl.empty");
  Value EmptyDoc = mustParse(telemetry::metricsJson());
  const Value &Empty = EmptyDoc.at("histograms").at("test.pctl.empty");
  EXPECT_EQ(Empty.at("p50").N, 0.0);
  EXPECT_EQ(Empty.at("p99").N, 0.0);
}

//===----------------------------------------------------------------------===//
// The off-mode cost contract
//===----------------------------------------------------------------------===//

TEST_F(TraceTest, OffModeAllocatesNothing) {
  uint64_t Before = GlobalAllocations.load(std::memory_order_relaxed);
  for (int I = 0; I != 10000; ++I) {
    telemetry::Span S("test.off", "test");
    EXPECT_FALSE(S.active());
    S.arg("ignored", 1u);
    if (telemetry::tracing() || telemetry::metering())
      ADD_FAILURE() << "collection on with both switches off";
  }
  uint64_t After = GlobalAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before) << "disabled telemetry must not allocate";
  EXPECT_EQ(telemetry::eventCount(), 0u);
}

TEST_F(TraceTest, RegisteredMetricLookupAllocatesNothing) {
  // An instrumentation site names its metric on every update, so finding
  // a registered name must not build a key. The names are longer than
  // any small-string buffer, so a std::string key would allocate.
  telemetry::setCollection(false, true);
  telemetry::counter("test.lookup.long_counter_name");
  telemetry::gauge("test.lookup.long_gauge_name");
  telemetry::histogram("test.lookup.long_histogram_name");
  uint64_t Before = GlobalAllocations.load(std::memory_order_relaxed);
  for (int I = 0; I != 1000; ++I) {
    ASSERT_TRUE(telemetry::metering());
    telemetry::counter("test.lookup.long_counter_name").add(1);
    telemetry::gauge("test.lookup.long_gauge_name").set(I);
    telemetry::histogram("test.lookup.long_histogram_name").record(I);
  }
  uint64_t After = GlobalAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(After, Before) << "a registered metric's lookup allocated";
  EXPECT_EQ(telemetry::counter("test.lookup.long_counter_name").value(),
            1000u);
}

TEST_F(TraceTest, OffModeIsCheap) {
  // A deliberately generous guard (engineered cost: one relaxed load per
  // site): 2M disabled spans must finish in well under a second even on
  // a loaded CI machine. Catches accidental locks or allocations, not
  // nanosecond drift — bench_solver_kernels guards the fine-grained
  // throughput contract.
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I != 2000000; ++I) {
    telemetry::Span S("test.cheap", "test");
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
  R.MaskedOutput = maskTimings(Buffer.str());
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
  // PMD's waves are wide enough that -j4 workers always take jobs; the
  // seven-method spreadsheet's jobs can all finish on the calling thread
  // before a worker wakes.
  TempFile Trace("_e2e_trace.json");
  TempFile Metrics("_e2e_metrics.json");
  ToolRun R = runTool("verify --example pmd --trace=" + Trace.Path.string() +
                      " --metrics=" + Metrics.Path.string() + " -j4");
  ASSERT_EQ(R.Exit, 0) << R.MaskedOutput;

  // The trace is well-formed Chrome JSON of spans (plus lane-name
  // metadata) covering several pipeline phases on several threads. Each
  // of the 9,360 picks has an `infer.method` span, and none carries a
  // reason trail: every solve converges, so none left the fallback
  // cascade.
  Value TraceDoc = mustParse(slurp(Trace.Path));
  EXPECT_EQ(TraceDoc.at("otherData").at("schema").S, "anek-trace-v1");
  std::set<std::string> Categories;
  std::set<double> Tids;
  unsigned Methods = 0, WithReason = 0;
  for (const Value &E : events(TraceDoc)) {
    if (E.at("ph").S == "M")
      continue;
    ASSERT_EQ(E.at("ph").S, "X");
    Tids.insert(E.at("tid").N);
    Categories.insert(E.at("cat").S);
    if (E.at("name").S != "infer.method")
      continue;
    ++Methods;
    const Value &Args = E.at("args");
    EXPECT_EQ(Args.has("reason"), Args.at("exit").S != "none");
    WithReason += Args.has("reason");
  }
  EXPECT_EQ(Methods, 9360u);
  EXPECT_EQ(WithReason, 0u);
  EXPECT_GE(Categories.size(), 4u)
      << "trace should span the pipeline, not one layer";
  EXPECT_TRUE(Categories.count("frontend"));
  EXPECT_TRUE(Categories.count("solver"));
  EXPECT_TRUE(Categories.count("infer"));
  EXPECT_GE(Tids.size(), 2u) << "-j4 must record from worker threads";

  // The metrics document carries per-solver iteration/residual stats.
  Value MetricsDoc = mustParse(slurp(Metrics.Path));
  EXPECT_EQ(MetricsDoc.at("schema").S, "anek-metrics-v1");
  EXPECT_GE(MetricsDoc.at("counters").at("solver.bp.solves").N, 1.0);
  const Value &Iters =
      MetricsDoc.at("histograms").at("solver.bp.iterations");
  ASSERT_TRUE(Iters.has("count"));
  EXPECT_GE(Iters.at("count").N, 1.0);
  EXPECT_TRUE(MetricsDoc.at("histograms").has("solver.bp.residual"));

  // Under the injected non-convergence fault all 12 picks of the file
  // example leave the cascade, and each `infer.method` span carries the
  // reason trail.
  TempFile Faulted("_fault_trace.json");
  ToolRun F = runTool("infer --example file --fault bp-nonconverge --trace=" +
                      Faulted.Path.string());
  ASSERT_EQ(F.Exit, 0) << F.MaskedOutput;
  Methods = WithReason = 0;
  const Value FaultedDoc = mustParse(slurp(Faulted.Path));
  for (const Value &E : events(FaultedDoc)) {
    if (E.at("ph").S != "X" || E.at("name").S != "infer.method")
      continue;
    ++Methods;
    const Value &Args = E.at("args");
    EXPECT_EQ(Args.has("reason"), Args.at("exit").S != "none");
    if (Args.has("reason")) {
      ++WithReason;
      EXPECT_NE(Args.at("reason").S.find("bp missed convergence"),
                std::string::npos);
    }
  }
  EXPECT_EQ(Methods, 12u);
  EXPECT_EQ(WithReason, 12u);
}

TEST_F(TraceTest, DriverSplitsFallbacksByCascadeExit) {
  // Every solve of the file example converges, so the footer has no
  // fallback segment and every exit counter reads 0. The injected
  // non-convergence fault fails all 12 picks and skips the
  // near-converged exit, and every graph is too large to enumerate, so
  // all 12 keep their BP beliefs. The footer and the metrics say the
  // same.
  struct Case {
    const char *Flags;
    const char *Footer;
    double KeptDegraded;
  };
  for (const Case &C :
       {Case{"", nullptr, 0.0},
        Case{" --fault bp-nonconverge",
             "12 fallback solve(s) (0 near-converged bp, 0 exact, "
             "12 kept degraded)",
             12.0}}) {
    TempFile Metrics("_cascade_metrics.json");
    ToolRun R = runTool(std::string("infer --example file") + C.Flags +
                        " --metrics=" + Metrics.Path.string());
    ASSERT_EQ(R.Exit, 0) << R.MaskedOutput;
    if (C.Footer) {
      EXPECT_NE(R.MaskedOutput.find(C.Footer), std::string::npos)
          << R.MaskedOutput;
    } else {
      EXPECT_EQ(R.MaskedOutput.find("fallback solve(s)"), std::string::npos)
          << R.MaskedOutput;
    }
    Value Counters = mustParse(slurp(Metrics.Path)).at("counters");
    EXPECT_EQ(Counters.at("infer.fallback_solves").N, C.KeptDegraded);
    EXPECT_EQ(Counters.at("cascade.exit.near_converged_bp").N, 0.0);
    EXPECT_EQ(Counters.at("cascade.exit.exact").N, 0.0);
    EXPECT_EQ(Counters.at("cascade.exit.kept_degraded").N, C.KeptDegraded);
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
  Value Doc = mustParse(JsonRun.MaskedOutput);
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
