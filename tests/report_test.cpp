//===- report_test.cpp - The `anek report` run profiler --------------------===//
//
// The profiler suite (DESIGN.md, "Telemetry"): `anek report` digests
// whatever artifacts a run left behind — an anek-trace-v1 Chrome trace,
// an anek-metrics-v1 snapshot, or both — into one profile. The contracts
// under test: a missing artifact drops its section (never fails),
// malformed artifacts are hard errors (never a silently wrong profile),
// the JSON rendering is a parseable anek-report-v1 document, the serial
// merge's share of phase 2 is shown, and a real single-threaded run
// profiles with its job run time and its memo-replayed share of picks.
//
//===----------------------------------------------------------------------===//

#include "corpus/ExampleSources.h"
#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "report/Report.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>
#include <string>

using namespace anek;

namespace {

/// A hand-built anek-trace-v1 document: a lane-name metadata event (not a
/// timed event), two phases (one with a nested child), a span on a pool
/// worker's lane, and an instant event.
std::string sampleTrace() {
  return R"({
  "otherData": {"schema": "anek-trace-v1"},
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
     "args": {"name": "anek-worker-1"}},
    {"name": "frontend.parse", "cat": "anek", "ph": "X", "pid": 1, "tid": 0,
     "ts": 0, "dur": 100, "args": {"depth": 0}},
    {"name": "infer.run", "cat": "anek", "ph": "X", "pid": 1, "tid": 0,
     "ts": 100, "dur": 2000, "args": {"depth": 0}},
    {"name": "solver.bp", "cat": "solver", "ph": "X", "pid": 1, "tid": 0,
     "ts": 200, "dur": 1500, "args": {"depth": 1}},
    {"name": "infer.method", "cat": "infer", "ph": "X", "pid": 1, "tid": 1,
     "ts": 300, "dur": 800, "args": {"depth": 1}},
    {"name": "cascade.transition", "cat": "infer", "ph": "i", "pid": 1,
     "tid": 0, "ts": 900, "args": {"reason": "bp missed convergence"}}
  ]
})";
}

/// A hand-built anek-metrics-v1 document.
std::string sampleMetrics() {
  return R"({
  "schema": "anek-metrics-v1",
  "counters": {
    "cache.hit": 5,
    "cache.miss": 1,
    "infer.replays": 6,
    "infer.worklist_picks": 24
  },
  "gauges": {"solver.bp.residual": 0.001},
  "histograms": {
    "infer.method_run_us": {"count": 4, "sum": 2000.0, "min": 300.0,
      "max": 900.0, "mean": 500.0, "p50": 450.0, "p95": 880.0, "p99": 900.0}
  }
})";
}

/// A hand-built trace of phase 2 at -j4: the phase span, two waves and
/// the merge closing each, 0.25 ms of merging in 1 ms of phase 2.
std::string waveTrace() {
  return R"({
  "otherData": {"schema": "anek-trace-v1"},
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "infer.phase2.waves", "cat": "infer", "ph": "X", "pid": 1,
     "tid": 0, "ts": 0, "dur": 1000, "args": {"depth": 0}},
    {"name": "infer.wave", "cat": "infer", "ph": "X", "pid": 1, "tid": 0,
     "ts": 0, "dur": 600, "args": {"depth": 1}},
    {"name": "infer.merge", "cat": "infer", "ph": "X", "pid": 1, "tid": 0,
     "ts": 450, "dur": 150, "args": {"depth": 2}},
    {"name": "infer.wave", "cat": "infer", "ph": "X", "pid": 1, "tid": 0,
     "ts": 600, "dur": 400, "args": {"depth": 1}},
    {"name": "infer.merge", "cat": "infer", "ph": "X", "pid": 1, "tid": 0,
     "ts": 900, "dur": 100, "args": {"depth": 2}}
  ]
})";
}

TEST(ReportTest, DigestsTraceIntoPhasesAndSpans) {
  Expected<report::Profile> P = report::profileFromText(sampleTrace(), "");
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  EXPECT_TRUE(P->HasTrace);
  EXPECT_FALSE(P->HasMetrics);

  // The metadata event is not counted; the instant and four spans are.
  EXPECT_EQ(P->TraceEvents, 5u);
  // Phases are the depth-0 spans; nested spans on any thread are not.
  ASSERT_EQ(P->Phases.size(), 2u);
  EXPECT_EQ(P->Phases[0].Name, "infer.run"); // Ordered by total time.
  EXPECT_EQ(P->Phases[0].TotalUs, 2000);
  EXPECT_EQ(P->Phases[1].Name, "frontend.parse");
  ASSERT_EQ(P->Spans.size(), 4u);
  EXPECT_EQ(P->Spans[0].Name, "infer.run");
  EXPECT_EQ(P->Spans[1].Name, "solver.bp");
  EXPECT_EQ(P->Spans[2].Name, "infer.method");
  // First span starts at ts 0, the latest end is infer.run at 100+2000.
  EXPECT_EQ(P->TraceSpanUs, 2100);
}

TEST(ReportTest, DigestsMetricsIntoAggregates) {
  Expected<report::Profile> P = report::profileFromText("", sampleMetrics());
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  EXPECT_TRUE(P->HasMetrics);
  EXPECT_FALSE(P->HasTrace);

  EXPECT_NEAR(P->CacheHitRate, 5.0 / 6.0, 1e-12);
  EXPECT_EQ(P->MethodRunUs, 2000u);
  EXPECT_EQ(P->Picks, 24u);
  EXPECT_EQ(P->Replays, 6u);

  const report::Profile::HistRow &H =
      P->Histograms.at("infer.method_run_us");
  EXPECT_EQ(H.Count, 4u);
  EXPECT_DOUBLE_EQ(H.Sum, 2000.0);
  EXPECT_DOUBLE_EQ(H.P50, 450.0);
  EXPECT_DOUBLE_EQ(H.P95, 880.0);
  EXPECT_DOUBLE_EQ(H.P99, 900.0);
}

TEST(ReportTest, MissingArtifactsDegradeButNothingAtAllIsAnError) {
  // Either artifact alone profiles; the all-empty call is the one hard
  // usage error.
  EXPECT_TRUE(report::profileFromText(sampleTrace(), "").hasValue());
  EXPECT_TRUE(report::profileFromText("", sampleMetrics()).hasValue());
  Expected<report::Profile> None = report::profileFromText("", "");
  ASSERT_FALSE(None.hasValue());
  EXPECT_EQ(None.status().code(), ErrorCode::InvalidArgument);
}

TEST(ReportTest, MalformedArtifactsAreHardErrors) {
  struct Case {
    const char *Name;
    std::string Trace, Metrics;
  } Cases[] = {
      {"truncated trace JSON", "{\"traceEvents\": [", ""},
      {"trace without traceEvents", "{\"otherData\": {}}", ""},
      {"metrics with the wrong schema",
       "", R"({"schema": "anek-metrics-v0", "counters": {}})"},
      {"metrics that are not JSON", "", "counters: 3"},
  };
  for (const Case &C : Cases) {
    Expected<report::Profile> P = report::profileFromText(C.Trace, C.Metrics);
    ASSERT_FALSE(P.hasValue()) << C.Name;
    EXPECT_EQ(P.status().code(), ErrorCode::InvalidArgument)
        << C.Name << ": " << P.status().str();
  }
}

TEST(ReportTest, RenderJsonIsParseableAnekReportV1) {
  Expected<report::Profile> P =
      report::profileFromText(sampleTrace(), sampleMetrics());
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  std::string Json = report::renderJson(*P);

  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Json, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.at("schema").str(), "anek-report-v1");

  const json::Value &Trace = Doc.at("trace");
  EXPECT_EQ(Trace.at("events").num(), 5.0);
  EXPECT_EQ(Trace.at("span_us").num(), 2100.0);
  EXPECT_EQ(Trace.at("phases").Items.size(), 2u);
  EXPECT_EQ(Trace.at("top_spans").Items[0].at("name").str(), "infer.run");

  const json::Value &Metrics = Doc.at("metrics");
  EXPECT_NEAR(Metrics.at("cache_hit_rate").num(), 5.0 / 6.0, 1e-9);
  EXPECT_EQ(Metrics.at("picks").num(), 24.0);
  EXPECT_EQ(Metrics.at("replayed_picks").num(), 6.0);
  EXPECT_EQ(Metrics.at("histograms")
                .at("infer.method_run_us")
                .at("p95")
                .num(),
            880.0);
}

TEST(ReportTest, RenderTextShowsEverySectionAndHonorsTopK) {
  Expected<report::Profile> P =
      report::profileFromText(sampleTrace(), sampleMetrics());
  ASSERT_TRUE(P.hasValue()) << P.status().str();

  std::string Text = report::renderText(*P);
  EXPECT_NE(Text.find("anek run profile"), std::string::npos);
  EXPECT_NE(Text.find("phases (top-level spans)"), std::string::npos);
  EXPECT_NE(Text.find("infer.run"), std::string::npos);
  EXPECT_NE(Text.find("cache hit rate"), std::string::npos);
  EXPECT_NE(Text.find("replayed picks        6 / 24 (25.0%)"),
            std::string::npos);

  // TopK truncates the span table: with K=1 only the heaviest span
  // (infer.run) survives; solver.bp falls out.
  std::string Short = report::renderText(*P, /*TopK=*/1);
  EXPECT_NE(Short.find("top 1 spans"), std::string::npos);
  EXPECT_EQ(Short.find("solver.bp"), std::string::npos);
}

TEST(ReportTest, ShowsTheSerialMergeShareOfPhase2) {
  // The merge is the serial part of phase 2, so its share shows where a
  // -jN run stops scaling.
  Expected<report::Profile> P =
      report::profileFromText(waveTrace(), sampleMetrics());
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  EXPECT_EQ(P->MergeUs, 250);
  EXPECT_EQ(P->Phase2Us, 1000);
  std::string Text = report::renderText(*P);
  EXPECT_NE(Text.find("  serial merge          0.25ms / 1.00ms (25.0% of "
                      "phase 2)\n"),
            std::string::npos)
      << Text;

  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(report::renderJson(*P), Doc, &Error)) << Error;
  EXPECT_EQ(Doc.at("trace").at("merge_us").num(), 250.0);
  EXPECT_EQ(Doc.at("trace").at("phase2_us").num(), 1000.0);

  // A trace without phase 2 has no share to show.
  Expected<report::Profile> NoWaves =
      report::profileFromText(sampleTrace(), sampleMetrics());
  ASSERT_TRUE(NoWaves.hasValue());
  EXPECT_EQ(report::renderText(*NoWaves).find("serial merge"),
            std::string::npos);
}

TEST(ReportTest, SequentialRunShowsItsRunTimeAndReplays) {
  // A real -j1 run that writes both artifacts.
  telemetry::resetTrace();
  telemetry::resetMetricsForTest();
  telemetry::setCollection(true, true);
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog =
      parseAndAnalyze(iteratorApiSource() + spreadsheetSource(), Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  InferOptions Opts;
  Opts.Parallelism = 1;
  InferResult R = runAnekInfer(*Prog, Opts);
  const std::string Trace = telemetry::chromeTraceJson();
  const std::string Metrics = telemetry::metricsJson();
  telemetry::setCollection(false, false);
  telemetry::resetTrace();
  telemetry::resetMetricsForTest();

  Expected<report::Profile> P = report::profileFromText(Trace, Metrics);
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  EXPECT_GT(P->MethodRunUs, 0u);

  // The replayed share of picks comes straight from the run.
  EXPECT_EQ(P->Picks, R.WorklistPicks);
  EXPECT_EQ(P->Replays, R.MemoReplays);
  EXPECT_GT(P->Replays, 0u);
  EXPECT_NE(report::renderText(*P).find("replayed picks"), std::string::npos);
}

} // namespace
