//===- cache_test.cpp - The incremental summary cache ----------------------===//
//
// Covers the three layers of the cache in isolation and end to end: the
// sealed CacheEntry codec, the SummaryCache storage backend (disk
// round-trip, index reload, every corruption-degrades-to-miss contract),
// and the engine-level replay guarantees (warm runs replay
// byte-identically, callee edits invalidate every transitive caller,
// whitespace edits invalidate nothing).
//
//===----------------------------------------------------------------------===//

#include "cache/SummaryCache.h"
#include "corpus/ExampleSources.h"
#include "infer/AnekInfer.h"
#include "infer/SummaryIO.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "support/FaultInject.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <string>
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

/// A representative cache entry touching every field of the codec.
CachedSolve sampleSolve() {
  CachedSolve S;
  S.SolverUsed = 2;
  S.FallbackUsed = true;
  S.Reason = "gibbs fallback";
  S.Solve.Iterations = 17;
  S.Solve.Converged = true;
  S.Solves = 3;
  S.Variables = 41;
  S.Factors = 59;
  S.SolveSeconds = 0.25;
  CachedUpdate SelfU;
  SelfU.OwnerName = "File.open";
  SelfU.Role = 1;
  SelfU.ParamIndex = 0;
  SelfU.IsSelf = true;
  SelfU.Odds = {1.0, 2.5, 0.125};
  SelfU.DebugLine = "evidence: H1";
  S.Updates.push_back(SelfU);
  CachedUpdate SiteU;
  SiteU.OwnerName = "File.read";
  SiteU.Role = 0;
  SiteU.ParamIndex = 2;
  SiteU.IsSelf = false;
  SiteU.SiteCallerName = "Client.use";
  SiteU.SiteIndex = 4;
  SiteU.Odds = {0.5};
  S.Updates.push_back(SiteU);
  return S;
}

/// A three-level call chain (use -> step -> leaf) plus a method with no
/// connection to it, for the invalidation-propagation tests.
std::string chainSource(const std::string &LeafBody) {
  return "class Chain {\n"
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
  const CachedSolve In = sampleSolve();
  const std::string Blob = summaryio::encodeCacheEntry(0xfeedULL, In);
  Expected<CachedSolve> Out = summaryio::decodeCacheEntry(Blob, 0xfeedULL);
  ASSERT_TRUE(Out.hasValue()) << Out.status().str();
  EXPECT_EQ(Out->SolverUsed, In.SolverUsed);
  EXPECT_EQ(Out->FallbackUsed, In.FallbackUsed);
  EXPECT_EQ(Out->Reason, In.Reason);
  EXPECT_EQ(Out->Solve.Iterations, In.Solve.Iterations);
  EXPECT_EQ(Out->Solve.Converged, In.Solve.Converged);
  EXPECT_EQ(Out->Solves, In.Solves);
  EXPECT_EQ(Out->Variables, In.Variables);
  EXPECT_EQ(Out->Factors, In.Factors);
  EXPECT_DOUBLE_EQ(Out->SolveSeconds, In.SolveSeconds);
  ASSERT_EQ(Out->Updates.size(), In.Updates.size());
  for (size_t I = 0; I != In.Updates.size(); ++I) {
    EXPECT_EQ(Out->Updates[I].OwnerName, In.Updates[I].OwnerName);
    EXPECT_EQ(Out->Updates[I].Role, In.Updates[I].Role);
    EXPECT_EQ(Out->Updates[I].ParamIndex, In.Updates[I].ParamIndex);
    EXPECT_EQ(Out->Updates[I].IsSelf, In.Updates[I].IsSelf);
    EXPECT_EQ(Out->Updates[I].SiteCallerName, In.Updates[I].SiteCallerName);
    EXPECT_EQ(Out->Updates[I].SiteIndex, In.Updates[I].SiteIndex);
    EXPECT_EQ(Out->Updates[I].Odds, In.Updates[I].Odds);
    EXPECT_EQ(Out->Updates[I].DebugLine, In.Updates[I].DebugLine);
  }
}

TEST_F(CacheTest, CacheEntryCodecRejectsDamage) {
  const std::string Blob = summaryio::encodeCacheEntry(7, sampleSolve());

  // A blob renamed to another key: the key echo catches it.
  EXPECT_FALSE(summaryio::decodeCacheEntry(Blob, 8).hasValue());

  // Any single flipped bit: the envelope checksum catches it.
  for (size_t Offset : {size_t(0), Blob.size() / 2, Blob.size() - 1}) {
    std::string Bad = Blob;
    Bad[Offset] ^= 0x01;
    EXPECT_FALSE(summaryio::decodeCacheEntry(Bad, 7).hasValue())
        << "offset " << Offset;
  }

  // A future (or damaged) version field — offset 8 in the envelope.
  std::string Versioned = Blob;
  Versioned[8] ^= 0x02;
  EXPECT_FALSE(summaryio::decodeCacheEntry(Versioned, 7).hasValue());

  // Truncation anywhere.
  EXPECT_FALSE(
      summaryio::decodeCacheEntry(std::string_view(Blob).substr(0, 10), 7)
          .hasValue());
  EXPECT_FALSE(summaryio::decodeCacheEntry(
                   std::string_view(Blob).substr(0, Blob.size() - 1), 7)
                   .hasValue());
}

//===----------------------------------------------------------------------===//
// The SummaryCache storage backend
//===----------------------------------------------------------------------===//

TEST_F(CacheTest, DiskStoreRoundTripsAndReloadsFromIndex) {
  const std::string Dir = tempDir();
  const CachedSolve Entry = sampleSolve();
  {
    cache::SummaryCache Cache(Dir);
    Cache.store("File.open", 11, Entry);
    Cache.store("File.open", 12, Entry); // Second trajectory state.
    Cache.store("File.read", 13, Entry);
    EXPECT_EQ(Cache.stats().Stores, 3u);
    EXPECT_EQ(Cache.size(), 3u);
    // Re-storing an existing (name, key) is a no-op.
    Cache.store("File.open", 11, Entry);
    EXPECT_EQ(Cache.stats().Stores, 3u);
  }

  // A fresh instance over the same directory sees everything.
  cache::SummaryCache Reloaded(Dir);
  EXPECT_EQ(Reloaded.size(), 3u);
  CachedSolve Out;
  EXPECT_EQ(Reloaded.lookup("File.open", 11, Out), CacheLookup::Hit);
  EXPECT_EQ(Reloaded.lookup("File.open", 12, Out), CacheLookup::Hit);
  EXPECT_EQ(Reloaded.lookup("File.read", 13, Out), CacheLookup::Hit);
  ASSERT_EQ(Out.Updates.size(), 2u);
  EXPECT_EQ(Out.Updates[1].SiteCallerName, "Client.use");

  // The three non-hit classifications stay distinct.
  EXPECT_EQ(Reloaded.lookup("File.close", 11, Out), CacheLookup::Miss);
  EXPECT_EQ(Reloaded.lookup("File.read", 99, Out), CacheLookup::Invalidated);
  const CacheStats S = Reloaded.stats();
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Invalidated, 1u);
  EXPECT_EQ(S.Corrupt, 0u);
}

TEST_F(CacheTest, DiskCorruptionClassifiesAsMissNeverError) {
  const std::string Dir = tempDir();
  {
    cache::SummaryCache Cache(Dir);
    Cache.store("File.open", 21, sampleSolve());
  }

  // Flip one byte in the middle of the stored blob, as disk rot would.
  fs::path BlobPath;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".sum")
      BlobPath = E.path();
  ASSERT_FALSE(BlobPath.empty());
  {
    std::fstream F(BlobPath, std::ios::in | std::ios::out | std::ios::binary);
    F.seekg(0, std::ios::end);
    const std::streamoff Size = F.tellg();
    F.seekp(Size / 2);
    char C = 0;
    F.seekg(Size / 2);
    F.read(&C, 1);
    C ^= 0x10;
    F.seekp(Size / 2);
    F.write(&C, 1);
  }

  cache::SummaryCache Cache(Dir);
  CachedSolve Out;
  EXPECT_EQ(Cache.lookup("File.open", 21, Out), CacheLookup::Corrupt);
  EXPECT_EQ(Cache.stats().Corrupt, 1u);
  // The rotten entry was dropped; a re-store heals it.
  Cache.store("File.open", 21, sampleSolve());
  EXPECT_EQ(Cache.lookup("File.open", 21, Out), CacheLookup::Hit);
}

TEST_F(CacheTest, DamagedIndexKeepsParsedPrefixAndDropsTail) {
  const std::string Dir = tempDir();
  {
    cache::SummaryCache Cache(Dir);
    Cache.store("File.open", 31, sampleSolve());
    Cache.store("File.read", 32, sampleSolve());
  }
  // Append a malformed line: the two parsed entries stay usable.
  {
    std::ofstream Out(fs::path(Dir) / cache::IndexFileName,
                      std::ios::binary | std::ios::app);
    Out << "not-a-hex-key File.close\n";
  }
  cache::SummaryCache Damaged(Dir);
  CachedSolve Out;
  EXPECT_EQ(Damaged.lookup("File.open", 31, Out), CacheLookup::Hit);
  EXPECT_EQ(Damaged.lookup("File.read", 32, Out), CacheLookup::Hit);
  EXPECT_GE(Damaged.stats().Corrupt, 1u);

  // A wrong header line (an alien format) reads as an empty cache.
  {
    std::ofstream Out(fs::path(Dir) / cache::IndexFileName,
                      std::ios::binary | std::ios::trunc);
    Out << "some-other-cache-format-v9\n";
  }
  cache::SummaryCache Alien(Dir);
  EXPECT_EQ(Alien.size(), 0u);
  EXPECT_EQ(Alien.lookup("File.open", 31, Out), CacheLookup::Miss);

  // A deleted blob behind a live index entry degrades the same way.
  {
    cache::SummaryCache Fresh(tempDir());
  }
  const std::string Dir2 = tempDir();
  {
    cache::SummaryCache Cache(Dir2);
    Cache.store("File.open", 33, sampleSolve());
  }
  for (const auto &E : fs::directory_iterator(Dir2))
    if (E.path().extension() == ".sum")
      fs::remove(E.path());
  cache::SummaryCache Gone(Dir2);
  EXPECT_EQ(Gone.lookup("File.open", 33, Out), CacheLookup::Corrupt);
}

TEST_F(CacheTest, InjectedBitFlipDegradesToCountedMiss) {
  // The wire-corrupt fault machinery, aimed at the `cache` site, flips a
  // byte of the loaded blob exactly as rot would; the sealed envelope
  // rejects it and the lookup degrades to a counted miss.
  cache::SummaryCache Cache(tempDir());
  Cache.store("File.open", 41, sampleSolve());
  CachedSolve Out;
  {
    faults::ScopedFault Flip(FaultKind::WireCorrupt, "cache",
                             /*FireBudget=*/1);
    EXPECT_EQ(Cache.lookup("File.open", 41, Out), CacheLookup::Corrupt);
    EXPECT_EQ(Cache.stats().Corrupt, 1u);
    // Budget consumed: the next lookup reads clean bytes again, but the
    // corrupt hit already evicted the entry (the method's only one, so
    // the name itself is gone).
    EXPECT_EQ(Cache.lookup("File.open", 41, Out), CacheLookup::Miss);
  }
  Cache.store("File.open", 41, sampleSolve());
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

  // No solver ran, so no solve time is reported: the stored entries'
  // seconds belong to the run that paid them.
  EXPECT_GT(R1.SolveSeconds, 0.0);
  EXPECT_EQ(R2.SolveSeconds, 0.0);
  // The cache answers in-run repeats itself; the SOLVE memo stays off.
  EXPECT_EQ(R1.MemoReplays, 0u);
  EXPECT_EQ(R2.MemoReplays, 0u);

  // An uncached run of the same program also agrees: caching changes
  // cost, never results.
  auto Plain = analyze(Source);
  InferResult R3 = runAnekInfer(*Plain);
  EXPECT_EQ(renderedSpecs(*Plain, R3), renderedSpecs(*Cold, R1));
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
  // A per-solve time budget makes results timing-dependent, so the
  // engine must refuse to cache under one.
  cache::SummaryCache Cache("");
  auto Prog = analyze(chainSource("return x + 1;"));
  InferOptions Opts;
  Opts.Cache = &Cache;
  Opts.SolveBudgetSeconds = 30.0;
  InferResult R = runAnekInfer(*Prog, Opts);
  EXPECT_EQ(R.Cache.Hits + R.Cache.Misses + R.Cache.Stores, 0u);
  EXPECT_EQ(Cache.size(), 0u);

  // Likewise under an armed analysis-perturbing fault: a run that may
  // have its solves sabotaged must neither read nor write the cache.
  faults::ScopedFault Sabotage(FaultKind::SolveFailure, "Chain.leaf");
  auto Prog2 = analyze(chainSource("return x + 1;"));
  InferOptions Opts2;
  Opts2.Cache = &Cache;
  InferResult R2 = runAnekInfer(*Prog2, Opts2);
  EXPECT_EQ(R2.Cache.Hits + R2.Cache.Misses + R2.Cache.Stores, 0u);
  EXPECT_EQ(Cache.size(), 0u);
}
