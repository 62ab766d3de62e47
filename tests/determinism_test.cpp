//===- determinism_test.cpp - Parallel inference determinism ----------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// The parallel scheduler's contract (DESIGN.md, "Concurrency model"):
// `anek infer -j N` is byte-identical to `-j 1`, and any run is
// byte-identical to a rerun of itself. The in-process half checks the
// library API over the paper examples and a PMD-style corpus; the
// driver half runs the real binary and compares full stdout/stderr with
// wall-clock timings masked out.
//
//===----------------------------------------------------------------------===//

#include "MaskTimings.h"
#include "corpus/ExampleSources.h"
#include "corpus/PmdGenerator.h"
#include "infer/AnekInfer.h"
#include "infer/SummaryIO.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

namespace fs = std::filesystem;

/// Renders everything observable about an inference run as pointer-free
/// text: the annotated program, per-method cascade reports, and the
/// aggregate statistics (minus wall-clock times). With a non-null
/// \p Snapshot, also returns the final summary store's snapshot bytes.
std::string renderRun(const std::string &Source, unsigned Parallelism,
                      std::string *Snapshot = nullptr) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  if (!Prog)
    return {};

  InferOptions Opts;
  Opts.Parallelism = Parallelism;
  InferResult R = runAnekInfer(*Prog, Opts, &Diags);
  if (Snapshot)
    *Snapshot = summaryio::encodeSnapshot(R.Summaries);

  std::ostringstream Out;
  PrintOptions POpts;
  POpts.SpecFor = [&](const MethodDecl &M) { return *R.specFor(&M); };
  Out << printProgram(*Prog, POpts);
  for (const auto &[M, Report] : R.Reports) {
    Out << M->qualifiedName() << ": exit=" << cascadeExitName(Report.Exit)
        << " converged=" << Report.Solve.Converged
        << " iters=" << Report.Solve.Iterations
        << " solves=" << Report.Solves << " failed=" << Report.Failed
        << " reason=" << Report.Reason << "\n";
  }
  Out << "picks=" << R.WorklistPicks << " inferred=" << R.Inferred.size()
      << " failed=" << R.MethodsFailed << " fallbacks=" << R.FallbackSolves
      << " vars=" << R.TotalVariables << " factors=" << R.TotalFactors
      << "\n";
  Out << Diags.str();
  return Out.str();
}

class DeterminismTest : public ::testing::TestWithParam<const char *> {};

std::string sourceByName(const std::string &Name) {
  if (Name == "spreadsheet")
    return iteratorApiSource() + spreadsheetSource();
  if (Name == "file")
    return fileProtocolSource();
  return fieldExampleSource();
}

/// Runs the real `anek` binary, captures combined stdout+stderr, and
/// masks wall-clock substrings ("0.123s") so byte comparison sees only
/// semantic output. Returns the exit code (-1 on abnormal termination).
int runToolMasked(const std::string &ArgLine, std::string &Output) {
  fs::path Capture =
      fs::temp_directory_path() /
      ("anek_determinism_" + std::to_string(::getpid()) + ".out");
  std::string Cmd = std::string(ANEK_TOOL_PATH) + " " + ArgLine + " > " +
                    Capture.string() + " 2>&1";
  int RawStatus = std::system(Cmd.c_str());
  std::ifstream In(Capture);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Output = maskTimings(Buffer.str());
  std::error_code Ignored;
  fs::remove(Capture, Ignored);
  if (RawStatus == -1 || !WIFEXITED(RawStatus))
    return -1;
  return WEXITSTATUS(RawStatus);
}

/// Like runToolMasked, but captures stdout only. The cache-accounting
/// stderr line legitimately differs between a cold and a warm run of the
/// same command; the inference output on stdout must not.
int runToolStdoutMasked(const std::string &ArgLine, std::string &Output) {
  fs::path Capture =
      fs::temp_directory_path() /
      ("anek_determinism_" + std::to_string(::getpid()) + ".out");
  std::string Cmd = std::string(ANEK_TOOL_PATH) + " " + ArgLine + " > " +
                    Capture.string() + " 2>/dev/null";
  int RawStatus = std::system(Cmd.c_str());
  std::ifstream In(Capture);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Output = maskTimings(Buffer.str());
  std::error_code Ignored;
  fs::remove(Capture, Ignored);
  if (RawStatus == -1 || !WIFEXITED(RawStatus))
    return -1;
  return WEXITSTATUS(RawStatus);
}

/// The `evidence ` lines of a masked run's output, in order.
std::vector<std::string> evidenceLines(const std::string &Output) {
  std::vector<std::string> Lines;
  std::istringstream In(Output);
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("evidence ", 0) == 0)
      Lines.push_back(Line);
  return Lines;
}

/// Sets ANEK_DEBUG_EVIDENCE for the tools this process runs while alive.
struct ScopedEvidenceTrace {
  ScopedEvidenceTrace() { ::setenv("ANEK_DEBUG_EVIDENCE", "1", 1); }
  ~ScopedEvidenceTrace() { ::unsetenv("ANEK_DEBUG_EVIDENCE"); }
};

} // namespace

TEST_P(DeterminismTest, ParallelMatchesSequentialInProcess) {
  std::string Source = sourceByName(GetParam());
  std::string Sequential = renderRun(Source, 1);
  ASSERT_FALSE(Sequential.empty());
  for (unsigned Jobs : {2u, 4u}) {
    std::string Parallel = renderRun(Source, Jobs);
    EXPECT_EQ(Sequential, Parallel) << "jobs=" << Jobs;
  }
}

TEST_P(DeterminismTest, RerunMatchesItselfInProcess) {
  // Each renderRun re-parses, so the AST lives at fresh addresses: any
  // pointer-keyed float reduction left in the pipeline shows up here.
  std::string Source = sourceByName(GetParam());
  EXPECT_EQ(renderRun(Source, 1), renderRun(Source, 1));
  EXPECT_EQ(renderRun(Source, 4), renderRun(Source, 4));
}

INSTANTIATE_TEST_SUITE_P(Examples, DeterminismTest,
                         ::testing::Values("spreadsheet", "file", "field"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

TEST(DeterminismPmdTest, ParallelMatchesSequentialOnPmdCorpus) {
  // A scaled-down PMD-style corpus: enough methods and call edges for
  // the waves to actually batch, small enough for a unit test.
  PmdConfig Config;
  Config.Classes = 22;
  Config.Methods = 90;
  Config.Wrappers = 3;
  Config.DirectSites = 6;
  Config.WrapperConsumerSites = 4;
  PmdCorpus Corpus = generatePmdCorpus(Config);
  std::string SequentialStore;
  std::string Sequential = renderRun(Corpus.Source, 1, &SequentialStore);
  ASSERT_FALSE(Sequential.empty());
  EXPECT_EQ(Sequential, renderRun(Corpus.Source, 1));
  // The store's raw log-odds rows, not just the specs thresholded from
  // them: a merge out of batch order changes the deltas, so the requeue
  // set, which moves evidence in low bits that extraction may round away.
  for (unsigned Jobs : {2u, 3u, 4u, 8u}) {
    std::string Store;
    EXPECT_EQ(Sequential, renderRun(Corpus.Source, Jobs, &Store))
        << "jobs=" << Jobs;
    EXPECT_TRUE(Store == SequentialStore)
        << "jobs=" << Jobs << ": summary store bytes diverged from -j1";
  }
}

TEST(DeterminismDriverTest, InferJobsProduceIdenticalBytes) {
  for (const char *Example : {"spreadsheet", "file", "field"}) {
    std::string ArgsBase =
        "infer --example " + std::string(Example) + " --report";
    std::string J1, J1Again;
    ASSERT_EQ(runToolMasked(ArgsBase + " -j 1", J1), 0) << J1;
    ASSERT_EQ(runToolMasked(ArgsBase + " -j 1", J1Again), 0) << J1Again;
    EXPECT_EQ(J1, J1Again) << Example << ": -j1 not stable across runs";
    // Every spelling of the thread count reaches the scheduler.
    for (const char *Jobs : {"-j 4", "--jobs 4", "-j4"}) {
      std::string J4;
      ASSERT_EQ(runToolMasked(ArgsBase + " " + Jobs, J4), 0) << J4;
      EXPECT_EQ(J1, J4) << Example << ": " << Jobs << " diverged from -j1";
    }
  }
}

TEST(DeterminismDriverTest, CachedWarmRunMatchesColdSequentialBytes) {
  // The cache's core contract at the driver surface: a warm `--cache`
  // run replays byte-identical stdout to an uncached cold `-j 1` run.
  fs::path CacheDir =
      fs::temp_directory_path() /
      ("anek_determinism_cache_" + std::to_string(::getpid()));
  std::error_code Ignored;
  fs::remove_all(CacheDir, Ignored);

  for (const char *Example : {"spreadsheet", "file"}) {
    std::string Base =
        "infer --example " + std::string(Example) + " --report";
    std::string Cached = Base + " -j 4 --cache " +
                         (CacheDir / Example).string();
    std::string Plain, Cold, Warm;
    ASSERT_EQ(runToolStdoutMasked(Base + " -j 1", Plain), 0) << Plain;
    ASSERT_EQ(runToolStdoutMasked(Cached, Cold), 0) << Cold;
    ASSERT_EQ(runToolStdoutMasked(Cached, Warm), 0) << Warm;
    EXPECT_EQ(Plain, Cold) << Example << ": caching changed cold output";
    EXPECT_EQ(Plain, Warm) << Example << ": warm replay diverged";

    // The accounting (stderr) confirms the warm run actually replayed
    // instead of re-solving its way to agreement.
    std::string WarmWithStderr;
    ASSERT_EQ(runToolMasked(Cached, WarmWithStderr), 0) << WarmWithStderr;
    EXPECT_NE(WarmWithStderr.find("0 miss(es)"), std::string::npos)
        << WarmWithStderr;
    EXPECT_NE(WarmWithStderr.find("0 store(s)"), std::string::npos)
        << WarmWithStderr;
  }
  fs::remove_all(CacheDir, Ignored);
}

TEST(DeterminismDriverTest, VerifyJobsProduceIdenticalBytes) {
  std::string J1, J4;
  int E1 = runToolMasked("verify --example spreadsheet -j 1", J1);
  int E4 = runToolMasked("verify --example spreadsheet -j 4", J4);
  EXPECT_EQ(E1, E4);
  EXPECT_EQ(J1, J4);
}

TEST(DeterminismDriverTest, EvidenceTraceIsTheSameAtAnyJobsAndFromTheCache) {
  // The ANEK_DEBUG_EVIDENCE trace is rendered from each update as the
  // merge applies it, so it follows batch order at any -j N, and a warm
  // cache replays it from records that carry no trace, even records a
  // run without the variable stored.
  fs::path CacheDir =
      fs::temp_directory_path() /
      ("anek_determinism_evidence_" + std::to_string(::getpid()));
  std::error_code Ignored;
  fs::remove_all(CacheDir, Ignored);
  const std::string Base = "infer --example spreadsheet";
  const std::string Cached = Base + " --cache " + CacheDir.string();

  std::string Fill;
  ASSERT_EQ(runToolMasked(Cached + " -j 1", Fill), 0) << Fill;
  EXPECT_TRUE(evidenceLines(Fill).empty()) << "trace without the variable";

  std::string J1, J4, Warm;
  {
    ScopedEvidenceTrace Trace;
    ASSERT_EQ(runToolMasked(Base + " -j 1", J1), 0) << J1;
    ASSERT_EQ(runToolMasked(Base + " -j 4", J4), 0) << J4;
    ASSERT_EQ(runToolMasked(Cached + " -j 4", Warm), 0) << Warm;
  }
  fs::remove_all(CacheDir, Ignored);
  EXPECT_NE(Warm.find("0 miss(es), 0 invalidated"), std::string::npos)
      << "the trace must not invalidate entries stored without it:\n"
      << Warm;

  const std::vector<std::string> Lines = evidenceLines(J1);
  EXPECT_EQ(Lines, evidenceLines(J4)) << "-j4 trace diverged from -j1";
  EXPECT_EQ(Lines, evidenceLines(Warm)) << "warm-cache trace diverged";

  // One line per merged update. Only a site's precondition vote is
  // weaken-only; own-body and availability votes boost.
  unsigned Weaken = 0, Boost = 0, Self = 0;
  for (const std::string &Line : Lines) {
    Weaken += Line.find(" [weaken]") != std::string::npos;
    Boost += Line.find(" [boost]") != std::string::npos;
    Self += Line.find(" self ") != std::string::npos;
  }
  EXPECT_EQ(Lines.size(), 239u);
  EXPECT_EQ(Weaken, 61u);
  EXPECT_EQ(Boost, 178u);
  EXPECT_EQ(Self, 75u);
}
