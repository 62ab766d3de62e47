//===- cache_test.cpp - The incremental summary cache ----------------------===//
//
// Covers the three layers of the cache in isolation and end to end: the
// SolveOutcome record codec (sealed as a CacheEntry), the SummaryCache
// storage backend (the log's round-trip and reload, the tail cut, every
// corruption-degrades-to-miss contract), and the engine-level
// replay guarantees (warm runs replay byte-identically, callee edits
// invalidate every transitive caller, whitespace edits invalidate
// nothing, renumbering edits invalidate everything, and hits that do not
// fit the program are re-solved).
//
//===----------------------------------------------------------------------===//

#include "cache/SummaryCache.h"
#include "corpus/ExampleSources.h"
#include "infer/AnekInfer.h"
#include "infer/SummaryIO.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "support/FaultInject.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace fs = std::filesystem;

namespace {

class CacheTest : public ::testing::Test {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override {
    faults::reset();
    std::error_code Ec;
    for (const fs::path &Dir : TempDirs)
      fs::remove_all(Dir, Ec);
  }

  /// A fresh directory under the system temp root, removed on teardown.
  std::string tempDir() {
    static unsigned Counter = 0;
    fs::path Dir = fs::temp_directory_path() /
                   ("anek-cache-test-" + std::to_string(::getpid()) + "-" +
                    std::to_string(Counter++));
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    TempDirs.push_back(Dir);
    return Dir.string();
  }

  std::vector<fs::path> TempDirs;
};

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

/// Renders the program with the run's inferred specs applied — the same
/// surface the driver prints, so "byte-identical" here means what it
/// means to a user.
std::string renderedSpecs(const Program &Prog, const InferResult &R) {
  PrintOptions Opts;
  Opts.SpecFor = [&R](const MethodDecl &M) {
    const MethodSpec *Spec = R.specFor(&M);
    return Spec ? *Spec : MethodSpec();
  };
  return printProgram(Prog, Opts);
}

/// A representative SOLVE record touching every field of the codec: two
/// odds vectors of different arities, one per application of the
/// method's model. Its timing is set too, though the codec drops it.
summaryio::SolveOutcome sampleOutcome() {
  summaryio::SolveOutcome S;
  S.DeclIndex = 5;
  S.Exit = static_cast<uint8_t>(CascadeExit::Exact);
  S.Reason = "exact fallback";
  S.Solve.Converged = true;
  S.Solve.Residual = 0.003;
  S.Solve.Iterations = 17;
  S.Solve.Updates = 340;
  S.Solve.SkippedUpdates = 12;
  S.Solve.Reason = "converged";
  S.Solves = 3;
  S.Variables = 41;
  S.Factors = 59;
  S.SolveSeconds = 0.25;
  S.Odds = {{1.0, 2.5, 0.125}, {0.5}};
  return S;
}

/// A failed SOLVE. The engine never stores one, but the codec carries the
/// failure fields like any other, and the engine treats a failed record
/// read back from the cache as invalidated.
summaryio::SolveOutcome failedOutcome() {
  summaryio::SolveOutcome F;
  F.DeclIndex = 9;
  F.Failed = true;
  F.Error = "internal: lowering threw";
  F.Reason = "bp missed convergence (oscillating)";
  F.Solves = 1;
  return F;
}

/// \p A is \p B read back through the codec: every field survives but the
/// wall-clock one, which no record carries, so it reads 0.
void expectSameOutcome(const summaryio::SolveOutcome &A,
                       const summaryio::SolveOutcome &B) {
  EXPECT_EQ(A.DeclIndex, B.DeclIndex);
  EXPECT_EQ(A.Failed, B.Failed);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Exit, B.Exit);
  EXPECT_EQ(A.Reason, B.Reason);
  EXPECT_EQ(A.Solve.Converged, B.Solve.Converged);
  EXPECT_EQ(A.Solve.Residual, B.Solve.Residual);
  EXPECT_EQ(A.Solve.Iterations, B.Solve.Iterations);
  EXPECT_EQ(A.Solve.Updates, B.Solve.Updates);
  EXPECT_EQ(A.Solve.SkippedUpdates, B.Solve.SkippedUpdates);
  EXPECT_EQ(A.Solve.Reason, B.Solve.Reason);
  EXPECT_EQ(A.Solves, B.Solves);
  EXPECT_EQ(A.Variables, B.Variables);
  EXPECT_EQ(A.Factors, B.Factors);
  EXPECT_EQ(A.SolveSeconds, 0.0);
  EXPECT_EQ(A.Odds, B.Odds);
}

/// A three-level call chain (use -> step -> leaf) plus a method with no
/// connection to it, for the invalidation-propagation tests. \p Before is
/// spliced in ahead of leaf, shifting every later declaration index.
std::string chainSource(const std::string &LeafBody,
                        const std::string &Before = "") {
  return "class Chain {\n" + Before +
         "  int leaf(int x) { " + LeafBody + " }\n"
         "  int step(int x) { return leaf(x) + 1; }\n"
         "  int use(int x) { return step(x) + 2; }\n"
         "}\n"
         "class Lone {\n"
         "  int quiet(int x) { return x * 3; }\n"
         "}\n";
}

} // namespace

//===----------------------------------------------------------------------===//
// The sealed CacheEntry codec
//===----------------------------------------------------------------------===//

TEST_F(CacheTest, CacheEntryCodecRoundTrips) {
  // Every field of the record survives but the timing, failed records
  // included.
  for (const summaryio::SolveOutcome &In :
       {sampleOutcome(), failedOutcome()}) {
    SCOPED_TRACE(In.Failed ? "failed" : "solved");
    const std::string Blob = summaryio::encodeCacheEntry(0xfeedULL, In);
    Expected<CachedSolve> Out = summaryio::decodeCacheEntry(Blob, 0xfeedULL);
    ASSERT_TRUE(Out.hasValue()) << Out.status().str();
    expectSameOutcome(*Out, In);
  }
}

TEST_F(CacheTest, CacheEntryCodecRejectsDamage) {
  auto Ok = [](std::string_view B) {
    return summaryio::decodeCacheEntry(B, 7).hasValue();
  };

  // A record filed under another key (a damaged framing key in the log):
  // the key echo catches it.
  const std::string Blob = summaryio::encodeCacheEntry(7, sampleOutcome());
  EXPECT_TRUE(Ok(Blob));
  EXPECT_FALSE(summaryio::decodeCacheEntry(Blob, 8).hasValue());
  // The blob kind is part of the envelope: a snapshot never reads as an
  // entry.
  EXPECT_FALSE(Ok(summaryio::encodeSnapshot({})));

  for (const std::string &Sealed :
       {Blob, summaryio::encodeCacheEntry(7, failedOutcome())}) {
    // Any single flipped bit: the envelope checksum catches it.
    for (size_t Offset : {size_t(0), Sealed.size() / 2, Sealed.size() - 1}) {
      std::string Bad = Sealed;
      Bad[Offset] ^= 0x01;
      EXPECT_FALSE(Ok(Bad)) << "offset " << Offset;
    }

    // A damaged version field (offset 8 in the envelope), and a blob an
    // older build sealed at version 1: both read as damage, never as
    // records.
    std::string Versioned = Sealed;
    Versioned[8] ^= 0x04;
    EXPECT_FALSE(Ok(Versioned));
    Versioned = Sealed;
    Versioned[8] = 1;
    EXPECT_FALSE(Ok(Versioned));

    // Truncation anywhere.
    EXPECT_FALSE(Ok(std::string_view(Sealed).substr(0, 10)));
    EXPECT_FALSE(Ok(std::string_view(Sealed).substr(0, Sealed.size() - 1)));
  }
}

//===----------------------------------------------------------------------===//
// The SummaryCache storage backend
//===----------------------------------------------------------------------===//

namespace {

std::string readBytes(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeBytes(const fs::path &Path, std::string_view Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

TEST_F(CacheTest, DiskStoreRoundTripsAndReloadsFromIndex) {
  const std::string Dir = tempDir();
  const CachedSolve Entry = sampleOutcome();
  {
    cache::SummaryCache Cache(Dir);
    Cache.store("File.open", 11, Entry);
    Cache.store("File.open", 12, Entry); // Second trajectory state.
    Cache.store("File.read", 13, Entry);
    EXPECT_EQ(Cache.size(), 3u);
    // Re-storing an existing (name, key) is a no-op.
    Cache.store("File.open", 11, Entry);
    EXPECT_EQ(Cache.size(), 3u);
  }

  // The directory holds one file: the log.
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir))
    Files.push_back(E.path().filename());
  EXPECT_EQ(Files, std::vector<fs::path>{cache::LogFileName});

  // A fresh instance over the same directory sees everything.
  cache::SummaryCache Reloaded(Dir);
  EXPECT_EQ(Reloaded.size(), 3u);
  CachedSolve Out;
  EXPECT_EQ(Reloaded.lookup("File.open", 11, Out), CacheLookup::Hit);
  EXPECT_EQ(Reloaded.lookup("File.open", 12, Out), CacheLookup::Hit);
  EXPECT_EQ(Reloaded.lookup("File.read", 13, Out), CacheLookup::Hit);
  ASSERT_EQ(Out.Odds.size(), 2u);
  EXPECT_EQ(Out.Odds[1], std::vector<double>{0.5});

  // The three non-hit classifications stay distinct, and none of them
  // drops a record.
  EXPECT_EQ(Reloaded.lookup("File.close", 11, Out), CacheLookup::Miss);
  EXPECT_EQ(Reloaded.lookup("File.read", 99, Out), CacheLookup::Invalidated);
  EXPECT_EQ(Reloaded.size(), 3u);
}

TEST_F(CacheTest, FlippedLogByteReadsAsCorruptAndReStoreHeals) {
  const std::string Dir = tempDir();
  const fs::path Log = fs::path(Dir) / cache::LogFileName;
  {
    cache::SummaryCache Cache(Dir);
    Cache.store("File.open", 21, sampleOutcome());
  }

  // Flip one byte in the middle of the record's sealed blob, as disk rot
  // would: the record still frames, but its envelope does not check.
  std::string Bytes = readBytes(Log);
  const std::string Blob = summaryio::encodeCacheEntry(21, sampleOutcome());
  const size_t At = Bytes.find(Blob);
  ASSERT_NE(At, std::string::npos);
  Bytes[At + Blob.size() / 2] ^= 0x10;
  writeBytes(Log, Bytes);

  CachedSolve Out;
  {
    cache::SummaryCache Cache(Dir);
    EXPECT_EQ(Cache.size(), 1u);
    EXPECT_EQ(Cache.lookup("File.open", 21, Out), CacheLookup::Corrupt);
    // The rotten record was dropped; a re-store heals it.
    EXPECT_EQ(Cache.size(), 0u);
    Cache.store("File.open", 21, sampleOutcome());
    EXPECT_EQ(Cache.lookup("File.open", 21, Out), CacheLookup::Hit);
  }
  // The log now holds the rotten record and its replacement; the later
  // one wins on reopen.
  cache::SummaryCache Healed(Dir);
  EXPECT_EQ(Healed.size(), 1u);
  EXPECT_EQ(Healed.lookup("File.open", 21, Out), CacheLookup::Hit);
}

TEST_F(CacheTest, AlienHeaderReadsAsEmptyCache) {
  // A log under our name whose header names another format (or is
  // damaged) reads as an empty cache, and is replaced by a new log.
  const std::string Dir = tempDir();
  fs::create_directories(Dir);
  writeBytes(fs::path(Dir) / cache::LogFileName,
             "some-other-cache-format-v9\nFile.open 31\n");
  CachedSolve Out;
  {
    cache::SummaryCache Alien(Dir);
    EXPECT_EQ(Alien.size(), 0u);
    EXPECT_EQ(Alien.lookup("File.open", 31, Out), CacheLookup::Miss);
    Alien.store("File.open", 31, sampleOutcome());
  }
  cache::SummaryCache Reopened(Dir);
  EXPECT_EQ(Reopened.size(), 1u);
  EXPECT_EQ(Reopened.lookup("File.open", 31, Out), CacheLookup::Hit);
}

TEST_F(CacheTest, TruncatedLogKeepsWholeRecordsAndCutsTheTail) {
  // A three-record log cut at every possible length, as a crash
  // mid-append would leave it: each reopen finds exactly the records
  // wholly inside the prefix, and a store made after the reopen is found
  // by the next one, which needs the torn tail cut off first.
  const std::string Dir = tempDir();
  const fs::path Log = fs::path(Dir) / cache::LogFileName;
  const std::vector<std::string> Names = {"File.open", "File.read",
                                          "File.close"};
  std::vector<uintmax_t> Ends; // Log size after each record.
  {
    cache::SummaryCache Cache(Dir);
    for (size_t I = 0; I != Names.size(); ++I) {
      Cache.store(Names[I], 50 + I, I == 1 ? failedOutcome() : sampleOutcome());
      Ends.push_back(fs::file_size(Log));
    }
  }
  const std::string Full = readBytes(Log);
  ASSERT_EQ(Full.size(), Ends.back());

  CachedSolve Out;
  for (size_t Len = 0; Len <= Full.size(); ++Len) {
    SCOPED_TRACE("prefix length " + std::to_string(Len));
    writeBytes(Log, std::string_view(Full).substr(0, Len));
    auto ExpectWholeRecords = [&](cache::SummaryCache &Cache) {
      for (size_t I = 0; I != Names.size(); ++I)
        EXPECT_EQ(Cache.lookup(Names[I], 50 + I, Out),
                  Ends[I] <= Len ? CacheLookup::Hit : CacheLookup::Miss)
            << Names[I];
    };
    {
      cache::SummaryCache Cut(Dir);
      ExpectWholeRecords(Cut);
      Cut.store("File.seek", 60, sampleOutcome());
    }
    cache::SummaryCache Reopened(Dir);
    ExpectWholeRecords(Reopened);
    EXPECT_EQ(Reopened.lookup("File.seek", 60, Out), CacheLookup::Hit);
    if (HasFailure())
      break; // One failing prefix tells the story.
  }
}

TEST_F(CacheTest, InjectedBitFlipDegradesToCountedMiss) {
  // The wire-corrupt fault machinery, aimed at the `cache` site, flips a
  // byte of the loaded blob exactly as rot would; the sealed envelope
  // rejects it and the lookup degrades to a counted miss.
  cache::SummaryCache Cache(tempDir());
  Cache.store("File.open", 41, sampleOutcome());
  CachedSolve Out;
  {
    faults::ScopedFault Flip(FaultKind::WireCorrupt, "cache",
                             /*FireBudget=*/1);
    EXPECT_EQ(Cache.lookup("File.open", 41, Out), CacheLookup::Corrupt);
    EXPECT_EQ(Cache.size(), 0u);
    // Budget consumed: the next lookup reads clean bytes again, but the
    // corrupt hit already evicted the entry (the method's only one, so
    // the name itself is gone).
    EXPECT_EQ(Cache.lookup("File.open", 41, Out), CacheLookup::Miss);
  }
  Cache.store("File.open", 41, sampleOutcome());
  EXPECT_EQ(Cache.lookup("File.open", 41, Out), CacheLookup::Hit);
}

//===----------------------------------------------------------------------===//
// Engine-level replay
//===----------------------------------------------------------------------===//

TEST_F(CacheTest, WarmRunReplaysByteIdenticallyWithZeroSolves) {
  const std::string Source = iteratorApiSource() + spreadsheetSource();
  cache::SummaryCache Cache(""); // In-memory.
  InferOptions Opts;
  Opts.Cache = &Cache;

  auto Cold = analyze(Source);
  InferResult R1 = runAnekInfer(*Cold, Opts);
  EXPECT_GT(R1.Cache.Stores, 0u);
  EXPECT_GT(R1.Cache.Misses, 0u);

  auto Warm = analyze(Source);
  InferResult R2 = runAnekInfer(*Warm, Opts);
  EXPECT_GT(R2.Cache.Hits, 0u);
  EXPECT_EQ(R2.Cache.Misses, 0u);
  EXPECT_EQ(R2.Cache.Invalidated, 0u);
  EXPECT_EQ(R2.Cache.Corrupt, 0u);
  EXPECT_EQ(R2.Cache.Stores, 0u); // Nothing new to learn.

  // The replay reproduces the cold run exactly, down to the rendered
  // annotations and the fixpoint's own accounting.
  EXPECT_EQ(R2.WorklistPicks, R1.WorklistPicks);
  EXPECT_EQ(R2.MethodsAnalyzed, R1.MethodsAnalyzed);
  EXPECT_EQ(renderedSpecs(*Warm, R2), renderedSpecs(*Cold, R1));

  // No solver ran, so no solve time is reported, and the records carry
  // none.
  EXPECT_GT(R1.SolveSeconds, 0.0);
  EXPECT_EQ(R2.SolveSeconds, 0.0);

  // An uncached run of the same program also agrees: caching changes
  // cost, never results.
  auto Plain = analyze(Source);
  InferResult R3 = runAnekInfer(*Plain);
  EXPECT_EQ(renderedSpecs(*Plain, R3), renderedSpecs(*Cold, R1));

  // One replay path: the memo answers in-run repeats with or without a
  // cache, so only states the run has not seen reach the cache. Cold,
  // every such state is solved and stored, and none hits.
  EXPECT_GT(R3.MemoReplays, 0u);
  EXPECT_EQ(R1.MemoReplays, R3.MemoReplays);
  EXPECT_EQ(R1.Cache.Hits, 0u);
  EXPECT_EQ(R1.Cache.Stores,
            R1.Cache.Misses + R1.Cache.Invalidated + R1.Cache.Corrupt);
  EXPECT_EQ(R1.Cache.Stores, R1.WorklistPicks - R1.MemoReplays);
  // Warm, every distinct state hits once, and a hit is memoized like a
  // fresh solve, so the memo replays the rest.
  EXPECT_EQ(R2.Cache.Hits, R1.Cache.Stores);
  EXPECT_EQ(R2.MemoReplays, R1.MemoReplays);
  EXPECT_EQ(R2.Cache.Hits + R2.MemoReplays, R2.WorklistPicks);

  // The lookups run in the wave jobs, yet neither the output nor any
  // count depends on how many threads ran them.
  auto Counts = [](const InferResult &R) {
    return std::vector<unsigned>{R.Cache.Hits,        R.Cache.Misses,
                                 R.Cache.Invalidated, R.Cache.Corrupt,
                                 R.Cache.Stores,      R.MemoReplays};
  };
  cache::SummaryCache Wide("");
  Opts.Cache = &Wide;
  Opts.Parallelism = 4;
  for (const InferResult *Narrow : {&R1, &R2}) {
    auto Prog = analyze(Source);
    InferResult R = runAnekInfer(*Prog, Opts);
    EXPECT_EQ(Counts(R), Counts(*Narrow));
    EXPECT_EQ(renderedSpecs(*Prog, R), renderedSpecs(*Cold, R1));
  }
}

TEST_F(CacheTest, ColdLogBytesDoNotDependOnTheRunOrItsThreads) {
  // A record carries no clock reading, and the stores follow batch order
  // on the scheduling thread, so two cold fills of the same program write
  // the same log byte for byte, at -j1 and at -j4 alike.
  const std::string Source = iteratorApiSource() + spreadsheetSource();
  std::vector<std::string> Logs;
  for (unsigned Jobs : {1u, 4u}) {
    const std::string Dir = tempDir();
    {
      cache::SummaryCache Cache(Dir);
      InferOptions Opts;
      Opts.Cache = &Cache;
      Opts.Parallelism = Jobs;
      auto Prog = analyze(Source);
      InferResult R = runAnekInfer(*Prog, Opts);
      EXPECT_GT(R.Cache.Stores, 0u);
    }
    Logs.push_back(readBytes(fs::path(Dir) / cache::LogFileName));
  }
  EXPECT_GT(Logs[0].size(), std::string(cache::LogFileName).size() + 1);
  EXPECT_TRUE(Logs[0] == Logs[1]) << "the -j1 and -j4 cold logs differ";
}

TEST_F(CacheTest, CalleeEditInvalidatesTransitiveCallers) {
  cache::SummaryCache Cache("");
  InferOptions Opts;
  Opts.Cache = &Cache;

  auto V1 = analyze(chainSource("return x + 1;"));
  InferResult R1 = runAnekInfer(*V1, Opts);
  EXPECT_GT(R1.Cache.Stores, 0u);

  // Editing the leaf's body re-keys the whole chain — leaf, step, and
  // the transitive caller use — while the unconnected method still
  // replays (so the warm run sees hits AND invalidations, no misses).
  auto V2 = analyze(chainSource("return x + 2;"));
  InferResult R2 = runAnekInfer(*V2, Opts);
  EXPECT_GE(R2.Cache.Invalidated, 3u) << "leaf, step, and use must re-key";
  EXPECT_GT(R2.Cache.Hits, 0u) << "Lone.quiet must still replay";
  EXPECT_EQ(R2.Cache.Misses, 0u);
  EXPECT_GT(R2.Cache.Stores, 0u); // The re-keyed chain is re-learned.
}

TEST_F(CacheTest, WhitespaceEditInvalidatesNothing) {
  cache::SummaryCache Cache("");
  InferOptions Opts;
  Opts.Cache = &Cache;

  auto V1 = analyze(chainSource("return x + 1;"));
  InferResult R1 = runAnekInfer(*V1, Opts);
  EXPECT_GT(R1.Cache.Stores, 0u);

  // The content hash is over the token stream (the parsed body printed
  // back), so pure formatting changes replay fully warm.
  auto V2 = analyze(chainSource("return\n      x     +\n\n 1;"));
  InferResult R2 = runAnekInfer(*V2, Opts);
  EXPECT_GT(R2.Cache.Hits, 0u);
  EXPECT_EQ(R2.Cache.Misses, 0u);
  EXPECT_EQ(R2.Cache.Invalidated, 0u);
  EXPECT_EQ(R2.Cache.Stores, 0u);
}

TEST_F(CacheTest, EngineSurvivesCorruptEntriesMidRun) {
  // Arm an unlimited bit-flipper at the cache site for a whole warm run:
  // every lookup that loads a blob sees rot. The run must complete with
  // the same results, counting the corruption instead of failing.
  const std::string Source = iteratorApiSource() + spreadsheetSource();
  cache::SummaryCache Cache(tempDir());
  InferOptions Opts;
  Opts.Cache = &Cache;

  auto Cold = analyze(Source);
  InferResult R1 = runAnekInfer(*Cold, Opts);
  EXPECT_GT(R1.Cache.Stores, 0u);

  auto Warm = analyze(Source);
  InferResult R2;
  {
    faults::ScopedFault Flip(FaultKind::WireCorrupt, "cache");
    R2 = runAnekInfer(*Warm, Opts);
  }
  EXPECT_GT(R2.Cache.Corrupt, 0u);
  EXPECT_EQ(R2.Cache.Hits, 0u);
  EXPECT_EQ(renderedSpecs(*Warm, R2), renderedSpecs(*Cold, R1));
}

TEST_F(CacheTest, CacheDisarmsUnderAnalysisPerturbingConditions) {
  // A run that may have its solves sabotaged by an armed
  // analysis-perturbing fault must neither read nor write the cache.
  cache::SummaryCache Cache("");
  faults::ScopedFault Sabotage(FaultKind::SolveFailure, "Chain.leaf");
  auto Prog = analyze(chainSource("return x + 1;"));
  InferOptions Opts;
  Opts.Cache = &Cache;
  InferResult R = runAnekInfer(*Prog, Opts);
  EXPECT_EQ(R.Cache.Hits + R.Cache.Misses + R.Cache.Stores, 0u);
  EXPECT_EQ(Cache.size(), 0u);
}

namespace {

/// A read-only view of a cache that records each lookup's classification
/// by method name. Dropping stores leaves the index as the earlier run
/// wrote it, so each lookup is classified against that run's entries
/// alone: a method the earlier run never stored reads as a miss on every
/// lookup, not as invalidated once this run has stored its first state.
class ReadOnlyView final : public SolveCache {
public:
  explicit ReadOnlyView(SolveCache &Inner) : Inner(Inner) {}

  CacheLookup lookup(const std::string &MethodName, uint64_t Key,
                     CachedSolve &Out) override {
    CacheLookup Result = Inner.lookup(MethodName, Key, Out);
    Seen[MethodName].insert(Result);
    return Result;
  }
  void store(const std::string &, uint64_t, const CachedSolve &) override {}

  std::map<std::string, std::set<CacheLookup>> Seen;

private:
  SolveCache &Inner;
};

} // namespace

TEST_F(CacheTest, RenumberingEditNeverReplays) {
  // Entries name methods by declaration index. That is sound only because
  // the environment hash covers every type's method count and ordered
  // signatures: a method spliced in ahead of Chain.leaf shifts every later
  // index, so every old entry must read as invalidated, never as a hit.
  cache::SummaryCache Cache("");
  InferOptions Opts;
  Opts.Cache = &Cache;
  auto V1 = analyze(chainSource("return x + 1;"));
  InferResult R1 = runAnekInfer(*V1, Opts);
  EXPECT_GT(R1.Cache.Stores, 0u);

  const std::string Renumbered =
      chainSource("return x + 1;", "  int first(int x) { return x; }\n");
  ReadOnlyView View(Cache);
  Opts.Cache = &View;
  auto V2 = analyze(Renumbered);
  InferResult R2 = runAnekInfer(*V2, Opts);
  EXPECT_EQ(R2.Cache.Hits, 0u);
  EXPECT_EQ(R2.Cache.Corrupt, 0u);
  using Classes = std::set<CacheLookup>;
  EXPECT_EQ(View.Seen.size(), 5u) << "first, leaf, step, use and quiet";
  EXPECT_EQ(View.Seen["Chain.first"], Classes{CacheLookup::Miss});
  for (const char *Old :
       {"Chain.leaf", "Chain.step", "Chain.use", "Lone.quiet"})
    EXPECT_EQ(View.Seen[Old], Classes{CacheLookup::Invalidated}) << Old;

  auto Plain = analyze(Renumbered);
  InferResult R3 = runAnekInfer(*Plain);
  EXPECT_EQ(renderedSpecs(*V2, R2), renderedSpecs(*Plain, R3));
}

namespace {

/// Serves a real cache's hits with one damage applied to every record
/// that has an update to damage, the way a stale or hostile store could.
class DamagingCache final : public SolveCache {
public:
  enum class Damage {
    MissingUpdate,
    ExtraUpdate,
    WrongArity,
    OtherMethod,
    UnknownExit,
    Failed,
    NanOdds,
    ZeroOdds,
  };

  DamagingCache(SolveCache &Inner, Damage D) : Inner(Inner), D(D) {}

  CacheLookup lookup(const std::string &MethodName, uint64_t Key,
                     CachedSolve &Out) override {
    CacheLookup Result = Inner.lookup(MethodName, Key, Out);
    if (Result != CacheLookup::Hit || Out.Odds.empty())
      return Result;
    std::vector<double> &Odds = Out.Odds.front();
    switch (D) {
    case Damage::MissingUpdate:
      Out.Odds.pop_back();
      break;
    case Damage::ExtraUpdate:
      Out.Odds.push_back(Odds);
      break;
    case Damage::WrongArity:
      Odds.push_back(1.0);
      break;
    case Damage::OtherMethod:
      Out.DeclIndex += 1;
      break;
    case Damage::UnknownExit:
      Out.Exit = NumCascadeExits;
      break;
    case Damage::Failed:
      Out.Failed = true;
      break;
    case Damage::NanOdds:
      Odds.front() = std::nan("");
      break;
    case Damage::ZeroOdds:
      Odds.front() = 0.0;
      break;
    }
    ++Damaged;
    return Result;
  }

  void store(const std::string &MethodName, uint64_t Key,
             const CachedSolve &Entry) override {
    Inner.store(MethodName, Key, Entry);
  }

  unsigned Damaged = 0;

private:
  SolveCache &Inner;
  Damage D;
};

} // namespace

TEST_F(CacheTest, HitsThatDoNotFitTheProgramAreResolved) {
  // A hit is validated against the program before the merge trusts it.
  // One that lacks the odds vector of its method's last application or
  // carries one more than it has applications, whose odds have the wrong
  // arity, that names another method or an unknown cascade exit, that
  // records a failure, or whose odds are NaN or 0 (outside the evidence
  // cap), is counted as invalidated and re-solved, and the output does
  // not change.
  const std::string Source = iteratorApiSource() + spreadsheetSource();
  auto Plain = analyze(Source);
  InferResult Uncached = runAnekInfer(*Plain);
  const std::string Expected = renderedSpecs(*Plain, Uncached);

  for (DamagingCache::Damage D :
       {DamagingCache::Damage::MissingUpdate,
        DamagingCache::Damage::ExtraUpdate,
        DamagingCache::Damage::WrongArity,
        DamagingCache::Damage::OtherMethod,
        DamagingCache::Damage::UnknownExit,
        DamagingCache::Damage::Failed,
        DamagingCache::Damage::NanOdds,
        DamagingCache::Damage::ZeroOdds}) {
    SCOPED_TRACE(static_cast<int>(D));
    cache::SummaryCache Inner("");
    InferOptions Opts;
    Opts.Cache = &Inner;
    auto Cold = analyze(Source);
    runAnekInfer(*Cold, Opts);

    DamagingCache Damaging(Inner, D);
    Opts.Cache = &Damaging;
    auto Warm = analyze(Source);
    InferResult R = runAnekInfer(*Warm, Opts);
    EXPECT_GT(Damaging.Damaged, 0u);
    EXPECT_EQ(R.Cache.Invalidated, Damaging.Damaged);
    EXPECT_EQ(R.Cache.Misses, 0u);
    EXPECT_EQ(R.Cache.Corrupt, 0u);
    EXPECT_EQ(renderedSpecs(*Warm, R), Expected);
  }
}
