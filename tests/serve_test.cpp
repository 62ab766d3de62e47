//===- serve_test.cpp - Serving-layer unit and driver tests ----------------===//
//
// The serving suite (DESIGN.md, "Serving model"): terminal-state
// contract, admission control and load shedding, retry/backoff over the
// transient class, per-request deadlines and memory budgets, manifest
// parsing, and the `anek batch` driver surface including graceful drain
// on SIGINT.
//
//===----------------------------------------------------------------------===//

#include "cache/SummaryCache.h"
#include "serve/BatchRunner.h"
#include "serve/Manifest.h"
#include "serve/RequestQueue.h"
#include "serve/RetryPolicy.h"
#include "serve/Serve.h"
#include "support/Cancel.h"
#include "support/FaultInject.h"
#include "support/MemTrack.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace anek;
using namespace anek::serve;

namespace {

namespace fs = std::filesystem;

/// Runs the real `anek` binary; returns its exit code (-1 on signal /
/// abnormal termination) and captures combined stdout+stderr.
int runTool(const std::string &ArgLine, std::string *Output = nullptr) {
  static std::atomic<unsigned> Counter{0};
  fs::path Capture = fs::temp_directory_path() /
                     ("anek_serve_" + std::to_string(::getpid()) + "_" +
                      std::to_string(Counter.fetch_add(1)) + ".out");
  std::string Cmd = std::string(ANEK_TOOL_PATH) + " " + ArgLine + " > " +
                    Capture.string() + " 2>&1";
  int RawStatus = std::system(Cmd.c_str());
  if (Output) {
    std::ifstream In(Capture);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    *Output = Buffer.str();
  }
  std::error_code Ignored;
  fs::remove(Capture, Ignored);
  if (RawStatus == -1 || !WIFEXITED(RawStatus))
    return -1;
  return WEXITSTATUS(RawStatus);
}

unsigned countLines(const std::string &Text) {
  unsigned Lines = 0;
  for (char C : Text)
    if (C == '\n')
      ++Lines;
  return Lines;
}

class ServeTest : public testing::Test {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

//===----------------------------------------------------------------------===//
// Core types
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, TerminalStateNamesAreTotal) {
  EXPECT_STREQ(terminalStateName(TerminalState::Ok), "ok");
  EXPECT_STREQ(terminalStateName(TerminalState::Degraded), "degraded");
  EXPECT_STREQ(terminalStateName(TerminalState::Failed), "failed");
  EXPECT_STREQ(terminalStateName(TerminalState::Timeout), "timeout");
  EXPECT_STREQ(terminalStateName(TerminalState::Shed), "shed");
}

TEST_F(ServeTest, JsonLineCarriesSchemaAndState) {
  BatchResult Res;
  Res.Index = 3;
  Res.Id = "req3";
  Res.Input = "example:file";
  Res.State = TerminalState::Timeout;
  Res.Attempts = 2;
  Res.CacheHits = 4;
  Res.CacheMisses = 1;
  Res.Reason = "run budget expired";
  std::string Line = Res.jsonLine();
  EXPECT_NE(Line.find("\"schema\": \"anek-batch-v1\""), std::string::npos);
  EXPECT_NE(Line.find("\"state\": \"timeout\""), std::string::npos);
  EXPECT_NE(Line.find("\"id\": \"req3\""), std::string::npos);
  EXPECT_NE(Line.find("\"attempts\": 2"), std::string::npos);
  EXPECT_NE(Line.find("\"queue_seconds\""), std::string::npos);
  EXPECT_NE(Line.find("\"cache_hits\": 4"), std::string::npos);
  EXPECT_NE(Line.find("\"cache_misses\": 1"), std::string::npos);
  EXPECT_EQ(Line.find('\n'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Manifest parsing
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ManifestParsesKeysAndDefaults) {
  Expected<std::vector<BatchRequest>> R = parseManifest(
      "# comment line\n"
      "\n"
      "example:file\n"
      "p/q.mjava id=alpha jobs=4 deadline=2.5 mem=64m "
      "fault=transient-solve*2:alpha cache=warm/dir\n");
  ASSERT_TRUE(R.hasValue()) << R.status().str();
  ASSERT_EQ(R->size(), 2u);
  EXPECT_EQ((*R)[0].Id, "req0");
  EXPECT_EQ((*R)[0].Input, "example:file");
  EXPECT_EQ((*R)[0].Jobs, 0u);
  EXPECT_LT((*R)[0].DeadlineSeconds, 0.0);
  EXPECT_LT((*R)[0].MemBudgetBytes, 0);
  EXPECT_TRUE((*R)[0].CacheDir.empty());
  EXPECT_EQ((*R)[1].Id, "alpha");
  EXPECT_EQ((*R)[1].Jobs, 4u);
  EXPECT_DOUBLE_EQ((*R)[1].DeadlineSeconds, 2.5);
  EXPECT_EQ((*R)[1].MemBudgetBytes, 64LL << 20);
  EXPECT_EQ((*R)[1].FaultSpec, "transient-solve*2:alpha");
  EXPECT_EQ((*R)[1].CacheDir, "warm/dir");
}

TEST_F(ServeTest, ManifestRejectsMalformedLinesWithLineNumbers) {
  auto ExpectBad = [](const std::string &Text, const char *Fragment) {
    Expected<std::vector<BatchRequest>> R = parseManifest(Text);
    ASSERT_FALSE(R.hasValue()) << Text;
    EXPECT_EQ(R.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(R.status().message().find(Fragment), std::string::npos)
        << R.status().str();
  };
  ExpectBad("example:file\nx.mjava bogus\n", "line 2");
  ExpectBad("x.mjava frobs=3\n", "unknown key");
  ExpectBad("x.mjava jobs=banana\n", "bad jobs");
  ExpectBad("x.mjava deadline=-1\n", "negative deadline");
  ExpectBad("x.mjava mem=12q\n", "bad mem");
  ExpectBad("x.mjava id=\n", "empty id");
  ExpectBad("x.mjava cache=\n", "empty cache");
}

TEST_F(ServeTest, LoadRequestSourceResolvesExamplesAndFiles) {
  BatchRequest R;
  R.Input = "example:file";
  std::string Source, Error;
  EXPECT_TRUE(loadRequestSource(R, Source, Error)) << Error;
  EXPECT_NE(Source.find("class File"), std::string::npos);

  R.Input = "example:nonesuch";
  EXPECT_FALSE(loadRequestSource(R, Source, Error));
  EXPECT_NE(Error.find("unknown example"), std::string::npos);

  R.Input = "/no/such/file.mjava";
  EXPECT_FALSE(loadRequestSource(R, Source, Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);

  // Inline source wins over the input path.
  R.Source = "class A { }";
  EXPECT_TRUE(loadRequestSource(R, Source, Error));
  EXPECT_EQ(Source, "class A { }");
}

//===----------------------------------------------------------------------===//
// RetryPolicy
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, RetryPolicyRetriesOnlyTransientFailures) {
  RetryPolicy Policy;
  Policy.MaxAttempts = 3;
  Status Transient = Status::error(ErrorCode::Unavailable, "blip");
  Status Permanent = Status::error(ErrorCode::InvalidArgument, "bad");
  EXPECT_TRUE(RetryPolicy::isTransient(Transient));
  EXPECT_FALSE(RetryPolicy::isTransient(Permanent));
  EXPECT_TRUE(Policy.shouldRetry(Transient, 1));
  EXPECT_TRUE(Policy.shouldRetry(Transient, 2));
  EXPECT_FALSE(Policy.shouldRetry(Transient, 3)); // Budget spent.
  EXPECT_FALSE(Policy.shouldRetry(Permanent, 1));
  EXPECT_FALSE(Policy.shouldRetry(Status::ok(), 1));
}

TEST_F(ServeTest, TransientClassIsExactlyUnavailableAndWorkerLost) {
  // The retryable set is typed, not heuristic: Unavailable (transient
  // solve blips) and WorkerLost (the shard tier's crash/hang/corrupt
  // class). Everything else is terminal for the attempt loop.
  EXPECT_TRUE(RetryPolicy::isTransient(
      Status::error(ErrorCode::Unavailable, "blip")));
  EXPECT_TRUE(RetryPolicy::isTransient(
      Status::error(ErrorCode::WorkerLost, "worker died mid-shard")));
  const ErrorCode Terminal[] = {
      ErrorCode::InvalidArgument, ErrorCode::ResourceExhausted,
      ErrorCode::DeadlineExceeded, ErrorCode::Unsatisfiable,
      ErrorCode::FaultInjected,    ErrorCode::Internal,
  };
  for (ErrorCode Code : Terminal)
    EXPECT_FALSE(RetryPolicy::isTransient(Status::error(Code, "x")))
        << "code " << static_cast<int>(Code);
  EXPECT_FALSE(RetryPolicy::isTransient(Status::ok()));

  // A lost worker is retried under the same attempt cap as any other
  // transient failure.
  RetryPolicy Policy;
  Policy.MaxAttempts = 2;
  Status Lost = Status::error(ErrorCode::WorkerLost, "gone");
  EXPECT_TRUE(Policy.shouldRetry(Lost, 1));
  EXPECT_FALSE(Policy.shouldRetry(Lost, 2));
}

TEST_F(ServeTest, BackoffIsCappedExponentialWithDeterministicJitter) {
  RetryPolicy Policy;
  Policy.BaseDelaySeconds = 0.01;
  Policy.MaxDelaySeconds = 0.05;
  EXPECT_DOUBLE_EQ(Policy.delaySeconds("req", 1), 0.0);
  double D2 = Policy.delaySeconds("req", 2);
  double D3 = Policy.delaySeconds("req", 3);
  double D9 = Policy.delaySeconds("req", 9);
  // Jittered into [0.5, 1.0] x the exponential step.
  EXPECT_GE(D2, 0.005);
  EXPECT_LE(D2, 0.01);
  EXPECT_GE(D3, 0.01);
  EXPECT_LE(D3, 0.02);
  EXPECT_LE(D9, 0.05); // Capped.
  // Deterministic: same (label, attempt, seed) -> same delay; different
  // labels decorrelate.
  EXPECT_DOUBLE_EQ(D2, Policy.delaySeconds("req", 2));
  RetryPolicy Reseeded = Policy;
  Reseeded.Seed = 99;
  EXPECT_NE(Policy.delaySeconds("req", 2), Reseeded.delaySeconds("req", 2));
  EXPECT_NE(Policy.delaySeconds("reqA", 2), Policy.delaySeconds("reqB", 2));
}

TEST_F(ServeTest, BackoffJitterMatchesGoldenValues) {
  // Pinned outputs of the splitmix64-based jitter at the default policy
  // (base 0.01, cap 0.5, seed 1). Recorded soak schedules and the
  // determinism contract both assume the recipe never drifts; a change
  // to the hash or the float mapping must be a deliberate format bump,
  // and this test is the tripwire.
  RetryPolicy Policy;
  EXPECT_DOUBLE_EQ(Policy.delaySeconds("soak7", 1), 0.0);
  EXPECT_DOUBLE_EQ(Policy.delaySeconds("soak7", 2), 0.005450449061986504);
  EXPECT_DOUBLE_EQ(Policy.delaySeconds("soak7", 3), 0.010900898720019456);
  EXPECT_DOUBLE_EQ(Policy.delaySeconds("req-0", 2), 0.005553460261094041);
  RetryPolicy Reseeded;
  Reseeded.Seed = 2;
  EXPECT_DOUBLE_EQ(Reseeded.delaySeconds("soak7", 2),
                   0.0053370833576237078);
}

//===----------------------------------------------------------------------===//
// CancelToken and MemCharge (the per-request governor)
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, CancelTokenFirstCancelWins) {
  CancelToken Token;
  EXPECT_FALSE(Token.cancelled());
  EXPECT_TRUE(Token.status().isOk());
  Token.cancel(ErrorCode::DeadlineExceeded, "first");
  Token.cancel(ErrorCode::ResourceExhausted, "second");
  EXPECT_TRUE(Token.cancelled());
  EXPECT_EQ(Token.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(Token.status().message(), "first");
}

TEST_F(ServeTest, MemChargeTracksPeakAndBlowsBudget) {
  CancelToken Token;
  memtrack::MemCharge Charge;
  Charge.bind(1000, &Token);
  Charge.charge(600);
  EXPECT_FALSE(Token.cancelled());
  Charge.release(600);
  EXPECT_EQ(Charge.current(), 0);
  EXPECT_GE(Charge.peak(), 600);
  Charge.charge(1500);
  EXPECT_TRUE(Charge.budgetBlown());
  EXPECT_TRUE(Token.cancelled());
  EXPECT_EQ(Token.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_NE(Token.status().message().find("mem-budget"), std::string::npos);
}

TEST_F(ServeTest, MemScopeEnrollsAllocationsOnThisThread) {
  memtrack::MemCharge Charge;
  {
    memtrack::MemScope Scope(&Charge);
    EXPECT_EQ(memtrack::activeCharge(), &Charge);
    // A real allocation while enrolled must move the watermark.
    std::vector<char> Block(1 << 16);
    EXPECT_GE(Charge.peak(), 1 << 16);
  }
  EXPECT_EQ(memtrack::activeCharge(), nullptr);
}

//===----------------------------------------------------------------------===//
// RequestQueue
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, QueueShedsWhenFullNonBlocking) {
  RequestQueue Queue(2);
  BatchRequest R;
  EXPECT_EQ(Queue.admit(R, false), RequestQueue::Admission::Admitted);
  EXPECT_EQ(Queue.admit(R, false), RequestQueue::Admission::Admitted);
  EXPECT_EQ(Queue.admit(R, false), RequestQueue::Admission::Shed);
  EXPECT_EQ(Queue.depth(), 2u);
  EXPECT_TRUE(Queue.pop().has_value());
  EXPECT_EQ(Queue.admit(R, false), RequestQueue::Admission::Admitted);
}

TEST_F(ServeTest, QueueBlockingAdmitBackpressures) {
  RequestQueue Queue(1);
  BatchRequest R;
  ASSERT_EQ(Queue.admit(R, true), RequestQueue::Admission::Admitted);
  std::atomic<bool> Admitted{false};
  std::thread Producer([&] {
    BatchRequest R2;
    Queue.admit(R2, true); // Blocks until the consumer pops.
    Admitted.store(true);
  });
  EXPECT_TRUE(Queue.pop().has_value());
  Producer.join();
  EXPECT_TRUE(Admitted.load());
  EXPECT_EQ(Queue.depth(), 1u);
}

TEST_F(ServeTest, QueueFullFaultShedsMatchingIdOnly) {
  faults::ScopedFault Fault(FaultKind::QueueFull, "victim");
  RequestQueue Queue(8);
  BatchRequest Victim, Bystander;
  Victim.Id = "victim";
  Bystander.Id = "bystander";
  EXPECT_EQ(Queue.admit(Victim, true), RequestQueue::Admission::Shed);
  EXPECT_EQ(Queue.admit(Bystander, true), RequestQueue::Admission::Admitted);
}

TEST_F(ServeTest, ClosedQueueShedsAdmitsAndDrainsPops) {
  RequestQueue Queue(4);
  BatchRequest R;
  R.Id = "queued";
  ASSERT_EQ(Queue.admit(R, true), RequestQueue::Admission::Admitted);
  Queue.close();
  EXPECT_EQ(Queue.admit(R, true), RequestQueue::Admission::Shed);
  // Already-queued work still drains (graceful, not abandoned).
  std::optional<BatchRequest> Popped = Queue.pop();
  ASSERT_TRUE(Popped.has_value());
  EXPECT_EQ(Popped->Id, "queued");
  EXPECT_FALSE(Queue.pop().has_value());
}

//===----------------------------------------------------------------------===//
// BatchRunner scenarios (in-process)
//===----------------------------------------------------------------------===//

BatchRequest exampleRequest(unsigned Index, const std::string &Name) {
  BatchRequest R;
  R.Index = Index;
  R.Id = "req" + std::to_string(Index);
  R.Input = "example:" + Name;
  return R;
}

TEST_F(ServeTest, BatchReachesTerminalStatesDeterministically) {
  std::vector<BatchRequest> Requests;
  Requests.push_back(exampleRequest(0, "file")); // Clean.
  BatchRequest Timeout = exampleRequest(1, "spreadsheet");
  Timeout.DeadlineSeconds = 1e-9;
  Requests.push_back(Timeout);
  BatchRequest Spike = exampleRequest(2, "file");
  Spike.FaultSpec = "mem-spike:req2";
  Spike.MemBudgetBytes = 1 << 20;
  Requests.push_back(Spike);
  BatchRequest Transient = exampleRequest(3, "field");
  Transient.FaultSpec = "transient-solve*2:req3";
  Requests.push_back(Transient);
  BatchRequest Shed = exampleRequest(4, "file");
  Shed.FaultSpec = "queue-full:req4";
  Requests.push_back(Shed);
  BatchRequest BadInput = exampleRequest(5, "nonesuch");
  Requests.push_back(BadInput);
  BatchRequest BadSpec = exampleRequest(6, "file");
  BadSpec.FaultSpec = "transient-solve*zero";
  Requests.push_back(BadSpec);

  BatchOptions Opts;
  Opts.Workers = 3;
  Opts.MaxAttempts = 3;
  Opts.RetryBaseDelaySeconds = 0.0001;
  Opts.RetryMaxDelaySeconds = 0.001;
  std::atomic<unsigned> SinkCalls{0};
  Opts.Sink = [&](const BatchResult &) { SinkCalls.fetch_add(1); };
  BatchRunner Runner(Opts);
  std::vector<BatchResult> Results = Runner.run(Requests);

  ASSERT_EQ(Results.size(), 7u);
  EXPECT_EQ(SinkCalls.load(), 7u); // Exactly one report per request.
  for (unsigned I = 0; I < Results.size(); ++I)
    EXPECT_EQ(Results[I].Index, I);

  // Clean request: same state the sequential driver reports (the
  // examples legitimately use fallback solvers, hence degraded).
  EXPECT_TRUE(Results[0].State == TerminalState::Ok ||
              Results[0].State == TerminalState::Degraded);
  EXPECT_EQ(Results[0].Attempts, 1u);
  EXPECT_FALSE(Results[0].Output.empty());

  EXPECT_EQ(Results[1].State, TerminalState::Timeout);
  EXPECT_NE(Results[1].Reason.find("deadline"), std::string::npos);

  EXPECT_EQ(Results[2].State, TerminalState::Failed);
  EXPECT_NE(Results[2].Reason.find("mem-budget"), std::string::npos);
  EXPECT_GE(Results[2].PeakBytes, 1LL << 40); // Spike in the watermark.

  EXPECT_TRUE(Results[3].State == TerminalState::Ok ||
              Results[3].State == TerminalState::Degraded);
  EXPECT_EQ(Results[3].Attempts, 3u); // Two injected failures, then ok.
  EXPECT_FALSE(Results[3].Output.empty());

  EXPECT_EQ(Results[4].State, TerminalState::Shed);
  EXPECT_EQ(Results[4].Attempts, 0u);

  EXPECT_EQ(Results[5].State, TerminalState::Failed);
  EXPECT_NE(Results[5].Reason.find("unknown example"), std::string::npos);

  EXPECT_EQ(Results[6].State, TerminalState::Failed);
  EXPECT_NE(Results[6].Reason.find("bad fire budget"), std::string::npos);
}

TEST_F(ServeTest, BatchCacheProviderWarmsSecondBatch) {
  // One in-memory cache shared through the provider seam: the first
  // batch populates it, a second identical batch replays from it, and
  // the replayed output is byte-identical.
  cache::SummaryCache Shared("");
  std::vector<std::string> DirsSeen;
  BatchOptions Opts;
  Opts.Workers = 1;
  Opts.DefaultCacheDir = "default-dir";
  Opts.Cache = [&](const std::string &Dir) -> SolveCache * {
    DirsSeen.push_back(Dir);
    return &Shared;
  };

  BatchRequest Cold = exampleRequest(0, "spreadsheet");
  std::vector<BatchResult> ColdResults = BatchRunner(Opts).run({Cold});
  ASSERT_EQ(ColdResults.size(), 1u);
  ASSERT_TRUE(ColdResults[0].State == TerminalState::Ok ||
              ColdResults[0].State == TerminalState::Degraded);
  // A cold run may legitimately self-hit (the fixpoint can revisit a
  // summary state it already stored this run), so only the stores are
  // asserted here.
  const CacheStats AfterCold = Shared.stats();
  EXPECT_GT(AfterCold.Stores, 0u);

  // The per-request `cache=` key overrides the batch default at the
  // provider seam.
  BatchRequest Warm = exampleRequest(0, "spreadsheet");
  Warm.CacheDir = "request-dir";
  std::vector<BatchResult> WarmResults = BatchRunner(Opts).run({Warm});
  ASSERT_EQ(WarmResults.size(), 1u);
  const CacheStats AfterWarm = Shared.stats();
  EXPECT_GT(AfterWarm.Hits, 0u);
  EXPECT_EQ(AfterWarm.Misses, AfterCold.Misses);   // Fully warm.
  EXPECT_EQ(AfterWarm.Stores, AfterCold.Stores);   // Nothing re-stored.
  EXPECT_EQ(WarmResults[0].Output, ColdResults[0].Output);

  ASSERT_EQ(DirsSeen.size(), 2u);
  EXPECT_EQ(DirsSeen[0], "default-dir");
  EXPECT_EQ(DirsSeen[1], "request-dir");

  // The per-request rows mirror the cache traffic: the cold run misses
  // (and may self-hit), the fully warm replay hits without missing.
  EXPECT_GT(ColdResults[0].CacheMisses, 0u);
  EXPECT_GT(WarmResults[0].CacheHits, 0u);
  EXPECT_EQ(WarmResults[0].CacheMisses, 0u);
}

TEST_F(ServeTest, SlowRequestThresholdDumpsSpanTree) {
  // Any request over the threshold gets a span-tree dump through the
  // SlowLog seam; a disabled threshold (the default 0) logs nothing.
  telemetry::setTraceLevel(telemetry::TraceLevel::Phase);
  std::vector<std::string> Logs;
  BatchOptions Opts;
  Opts.Workers = 1;
  Opts.SlowRequestSeconds = 1e-9; // Everything is slow.
  Opts.SlowLog = [&](const std::string &Line) { Logs.push_back(Line); };
  std::vector<BatchResult> Results =
      BatchRunner(Opts).run({exampleRequest(0, "file")});
  telemetry::setTraceLevel(telemetry::TraceLevel::Off);
  telemetry::resetTrace();
  telemetry::resetMetricsForTest();

  ASSERT_EQ(Results.size(), 1u);
  ASSERT_EQ(Logs.size(), 1u);
  EXPECT_NE(Logs[0].find("slow-request id=req0"), std::string::npos);
  EXPECT_NE(Logs[0].find("threshold=0.000"), std::string::npos);
  // The dump carries the request's own span tree (collection was on).
  EXPECT_NE(Logs[0].find("infer.phase"), std::string::npos) << Logs[0];
  EXPECT_NE(Logs[0].find("ms"), std::string::npos);

  // Default threshold: the seam stays silent.
  Logs.clear();
  BatchOptions Quiet;
  Quiet.Workers = 1;
  Quiet.SlowLog = [&](const std::string &Line) { Logs.push_back(Line); };
  BatchRunner(Quiet).run({exampleRequest(0, "file")});
  EXPECT_TRUE(Logs.empty());
}

TEST_F(ServeTest, TransientExhaustionFailsAfterMaxAttempts) {
  BatchRequest R = exampleRequest(0, "file");
  R.FaultSpec = "transient-solve*9:req0"; // More failures than attempts.
  BatchOptions Opts;
  Opts.Workers = 1;
  Opts.MaxAttempts = 2;
  Opts.RetryBaseDelaySeconds = 0.0001;
  BatchRunner Runner(Opts);
  std::vector<BatchResult> Results = Runner.run({R});
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].State, TerminalState::Failed);
  EXPECT_EQ(Results[0].Attempts, 2u);
  EXPECT_NE(Results[0].Reason.find("unavailable"), std::string::npos);
}

TEST_F(ServeTest, FaultedRequestDoesNotPerturbNeighbors) {
  // The same program runs clean and faulted side by side; the clean run
  // must byte-match a batch with no faults at all.
  std::vector<BatchRequest> Clean;
  Clean.push_back(exampleRequest(0, "spreadsheet"));
  BatchOptions Opts;
  Opts.Workers = 2;
  BatchRunner CleanRunner(Opts);
  std::vector<BatchResult> Baseline = CleanRunner.run(Clean);
  ASSERT_EQ(Baseline.size(), 1u);
  ASSERT_FALSE(Baseline[0].Output.empty());

  faults::reset();
  std::vector<BatchRequest> Mixed;
  Mixed.push_back(exampleRequest(0, "spreadsheet"));
  BatchRequest Faulted = exampleRequest(1, "spreadsheet");
  Faulted.FaultSpec = "solve-fail:req1/Row.createColIter";
  Mixed.push_back(Faulted);
  BatchRunner MixedRunner(Opts);
  std::vector<BatchResult> Results = MixedRunner.run(Mixed);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Output, Baseline[0].Output);
  EXPECT_EQ(Results[0].State, Baseline[0].State);
  EXPECT_EQ(Results[1].State, TerminalState::Degraded);
  EXPECT_NE(Results[1].Reason.find("method(s) failed"), std::string::npos);
}

TEST_F(ServeTest, DrainShedsUnadmittedRequests) {
  std::vector<BatchRequest> Requests;
  for (unsigned I = 0; I < 6; ++I)
    Requests.push_back(exampleRequest(I, "file"));
  BatchOptions Opts;
  Opts.Workers = 1;
  BatchRunner Runner(Opts);
  Runner.requestDrain(); // Drain before anything is admitted.
  std::vector<BatchResult> Results = Runner.run(Requests);
  ASSERT_EQ(Results.size(), 6u);
  for (const BatchResult &Res : Results) {
    EXPECT_EQ(Res.State, TerminalState::Shed);
    EXPECT_EQ(Res.Reason, "drain");
  }
}

TEST_F(ServeTest, ShedWhenFullFloodsDeterministicallyToTerminalStates) {
  std::vector<BatchRequest> Requests;
  for (unsigned I = 0; I < 12; ++I)
    Requests.push_back(exampleRequest(I, "file"));
  BatchOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCap = 2;
  Opts.ShedWhenFull = true;
  BatchRunner Runner(Opts);
  std::vector<BatchResult> Results = Runner.run(Requests);
  ASSERT_EQ(Results.size(), 12u);
  unsigned Shed = 0, Done = 0;
  for (const BatchResult &Res : Results) {
    if (Res.State == TerminalState::Shed)
      ++Shed;
    else if (Res.State == TerminalState::Ok ||
             Res.State == TerminalState::Degraded)
      ++Done;
  }
  EXPECT_EQ(Shed + Done, 12u); // Every request terminal either way.
  EXPECT_GT(Done, 0u);         // The queue was not a black hole.
}

//===----------------------------------------------------------------------===//
// Driver surface: anek batch
//===----------------------------------------------------------------------===//

class BatchDriverTest : public ServeTest {
protected:
  fs::path TempDir;
  void SetUp() override {
    ServeTest::SetUp();
    TempDir = fs::temp_directory_path() /
              ("anek_batch_test_" + std::to_string(::getpid()));
    fs::create_directories(TempDir);
  }
  void TearDown() override {
    std::error_code Ignored;
    fs::remove_all(TempDir, Ignored);
    ServeTest::TearDown();
  }
  fs::path writeFile(const std::string &Name, const std::string &Text) {
    fs::path P = TempDir / Name;
    std::ofstream Out(P);
    Out << Text;
    return P;
  }
};

TEST_F(BatchDriverTest, BatchEmitsOneJsonLinePerRequest) {
  fs::path Manifest = writeFile("m.txt",
                                "example:file\n"
                                "example:field id=beta\n"
                                "# comment\n"
                                "example:spreadsheet jobs=2\n");
  std::string Output;
  int Exit = runTool("batch " + Manifest.string() + " --workers 2", &Output);
  // The examples degrade (fallback solves), so all-ok exit 0 is not
  // expected; 1 is the any-non-ok contract.
  EXPECT_EQ(Exit, 1) << Output;
  unsigned JsonLines = 0;
  std::istringstream In(Output);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("{\"schema\": \"anek-batch-v1\"", 0) == 0)
      ++JsonLines;
  EXPECT_EQ(JsonLines, 3u);
  EXPECT_NE(Output.find("\"id\": \"beta\""), std::string::npos);
  EXPECT_NE(Output.find("3 request(s)"), std::string::npos);
}

TEST_F(BatchDriverTest, BatchReadsManifestFromStdinAndWritesOut) {
  fs::path Out = TempDir / "results.jsonl";
  std::string Output;
  int Exit = runTool("batch - --out " + Out.string() +
                         " < /dev/null",
                     &Output);
  EXPECT_EQ(Exit, 0) << Output; // Zero requests: vacuously all ok.
  EXPECT_TRUE(fs::exists(Out));

  std::string Echo = "printf 'example:file\\n' | " +
                     std::string(ANEK_TOOL_PATH) + " batch - --out " +
                     Out.string() + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(Echo.c_str()) != -1, true);
  std::ifstream In(Out);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(countLines(Buffer.str()), 1u);
  EXPECT_NE(Buffer.str().find("anek-batch-v1"), std::string::npos);
}

TEST_F(BatchDriverTest, BatchRejectsMalformedManifestAndUsage) {
  fs::path Bad = writeFile("bad.txt", "example:file frobs=1\n");
  std::string Output;
  EXPECT_EQ(runTool("batch " + Bad.string(), &Output), 1);
  EXPECT_NE(Output.find("manifest line 1"), std::string::npos) << Output;
  EXPECT_EQ(runTool("batch"), 2);                    // No manifest.
  EXPECT_EQ(runTool("batch m.txt --workers 0"), 2); // Bad flag value.
  // Removed surface is a usage error, never silently ignored.
  EXPECT_EQ(runTool("batch m.txt --workers unix:/x"), 2);
  EXPECT_EQ(runTool("batch m.txt --fuse"), 2);
  EXPECT_EQ(runTool("batch m.txt --frobnicate"), 2);
  EXPECT_EQ(runTool("batch /no/such/manifest.txt"), 1);
}

TEST_F(BatchDriverTest, BatchFaultFlagUsesJoinedSpelling) {
  fs::path Manifest = writeFile("m.txt", "example:file\n");
  std::string Output;
  int Exit = runTool("batch " + Manifest.string() +
                         " --fault=queue-full:req0",
                     &Output);
  EXPECT_EQ(Exit, 1) << Output;
  EXPECT_NE(Output.find("\"state\": \"shed\""), std::string::npos) << Output;
  EXPECT_EQ(runTool("batch " + Manifest.string() + " --fault=bogus"), 2);
}

TEST_F(BatchDriverTest, PathTemplatesExpandPid) {
  fs::path Manifest = writeFile("m.txt", "example:file\n");
  std::string OutTemplate = (TempDir / "r-%p.jsonl").string();
  std::string MetricsTemplate = (TempDir / "m-%p.json").string();
  int Exit = runTool("batch " + Manifest.string() + " --out " + OutTemplate +
                     " --metrics " + MetricsTemplate);
  EXPECT_EQ(Exit, 1);
  // %p expanded: the literal template must not exist, a pid-stamped
  // sibling must.
  EXPECT_FALSE(fs::exists(TempDir / "r-%p.jsonl"));
  unsigned OutFiles = 0, MetricFiles = 0;
  for (const auto &Entry : fs::directory_iterator(TempDir)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("r-", 0) == 0 && Name.find("%") == std::string::npos)
      ++OutFiles;
    if (Name.rfind("m-", 0) == 0 && Name.find("%") == std::string::npos &&
        Entry.path().extension() == ".json")
      ++MetricFiles;
  }
  EXPECT_EQ(OutFiles, 1u);
  EXPECT_EQ(MetricFiles, 1u);
}

TEST_F(BatchDriverTest, SigintDrainsGracefully) {
  // Launch a long batch, SIGINT it mid-flight, and check the contract:
  // the process exits normally (no crash), and every line it wrote is a
  // complete terminal-state record.
  fs::path Manifest = TempDir / "long.txt";
  {
    std::ofstream Out(Manifest);
    for (int I = 0; I < 200; ++I)
      Out << "example:spreadsheet\n";
  }
  fs::path Out = TempDir / "drained.jsonl";
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    std::string OutArg = Out.string();
    std::string ManifestArg = Manifest.string();
    ::execl(ANEK_TOOL_PATH, ANEK_TOOL_PATH, "batch", ManifestArg.c_str(),
            "--workers", "2", "--out", OutArg.c_str(),
            static_cast<char *>(nullptr));
    _exit(127);
  }
  // Let a few requests finish, then interrupt.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(Pid, SIGINT), 0);
  int RawStatus = 0;
  ASSERT_EQ(::waitpid(Pid, &RawStatus, 0), Pid);
  ASSERT_TRUE(WIFEXITED(RawStatus)) << "batch crashed on SIGINT";
  int Exit = WEXITSTATUS(RawStatus);
  EXPECT_TRUE(Exit == 0 || Exit == 1) << "exit " << Exit;

  std::ifstream In(Out);
  std::string Line;
  unsigned Lines = 0, Shed = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_EQ(Line.rfind("{\"schema\": \"anek-batch-v1\"", 0), 0u) << Line;
    EXPECT_EQ(Line.back(), '}') << "truncated line: " << Line;
    if (Line.find("\"state\": \"shed\"") != std::string::npos)
      ++Shed;
  }
  // The drain sheds what it could not admit; with 200 requests and a
  // 300ms head start some must have been shed, and every offered request
  // got exactly one line.
  EXPECT_EQ(Lines, 200u);
  EXPECT_GT(Shed, 0u);
}

} // namespace
