//===- harness.cpp - One run of the end-to-end benchmark -------------------===//
//
// Runs one workload of the end-to-end benchmark (README.md in this
// directory) in-process against the libraries' public functions, and
// prints one JSON object with the raw timing samples and the outputs the
// checks need. run.py turns those into the reported metrics.
//
// With --spans FILE the run is traced: it records a span around every
// layer call the harness makes itself, and around every BP solve and
// every cache lookup/store through the engine's existing injection
// seams (InferOptions::Bp, InferOptions::Cache). Nothing inside the
// program is instrumented. Spans are kept in memory and written to FILE
// when the run ends.
//
//   anek_e2e --workload pmd_j1|pmd_j4|table3|pmd_edit --seed N
//            --seconds S --work-dir DIR [--spans FILE] [--small]
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/IrBuilder.h"
#include "cache/SummaryCache.h"
#include "constraints/ConstraintGen.h"
#include "corpus/InlineComparison.h"
#include "corpus/PmdGenerator.h"
#include "corpus/SpecComparison.h"
#include "factor/Kernels.h"
#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"
#include "plural/Checker.h"
#include "plural/LocalInference.h"
#include "support/Hash.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <sched.h>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

#ifndef ANEK_E2E_BUILD_TYPE
#define ANEK_E2E_BUILD_TYPE "unknown"
#endif

using namespace anek;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

/// Small dense id of the calling thread, in order of first use.
uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local const uint32_t Mine = Next.fetch_add(1);
  return Mine;
}

struct SpanRecord {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 for a root span.
  uint32_t Op = 0;     ///< The set-up or operation the span belongs to.
  uint32_t Thread = 0;
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  std::array<std::pair<const char *, double>, 8> Args{};
  unsigned NumArgs = 0;
};

/// Thread-safe in-memory span store. Ids start at 1; 0 means "no span".
class SpanLog {
public:
  uint32_t newId() { return NextId.fetch_add(1); }

  void add(const SpanRecord &R) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back(R);
  }

  const std::vector<SpanRecord> &spans() const { return Spans; }

private:
  std::atomic<uint32_t> NextId{1};
  std::mutex Mutex;
  std::vector<SpanRecord> Spans;
};

/// Records one span from construction to destruction. With a null log it
/// records nothing, which is how untraced runs execute the same code.
class Span {
public:
  Span(SpanLog *Log, const char *Name, uint32_t Parent, uint32_t Op)
      : Log(Log) {
    if (!Log)
      return;
    Rec.Id = Log->newId();
    Rec.Parent = Parent;
    Rec.Op = Op;
    Rec.Thread = threadIndex();
    Rec.Name = Name;
    Rec.StartNs = nowNs();
  }
  ~Span() {
    if (!Log)
      return;
    Rec.EndNs = nowNs();
    Log->add(Rec);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint32_t id() const { return Rec.Id; }

  void arg(const char *Key, double Value) {
    if (Log && Rec.NumArgs != Rec.Args.size())
      Rec.Args[Rec.NumArgs++] = {Key, Value};
  }

private:
  SpanLog *Log;
  SpanRecord Rec;
};

/// Where spans recorded on engine threads hang: the harness sets this
/// before each inference, and the seam wrappers read it from whichever
/// thread the engine calls them on.
struct SpanContext {
  std::atomic<uint32_t> Parent{0};
  std::atomic<uint32_t> Op{0};
};

/// Times every BP solve of a traced inference (InferOptions::Bp). It
/// calls the same solver the engine would construct itself, so results
/// are unchanged.
class TimedBp final : public BpSolveDelegate {
public:
  TimedBp(SpanLog &Log, SpanContext &Ctx) : Log(Log), Ctx(Ctx) {}

  Marginals solve(const SumProductSolver::Options &O, const FactorGraph &G,
                  Marginals *GraphLikelihood, SolveReport *Report) override {
    SolveReport Local;
    SolveReport &R = Report ? *Report : Local;
    Span S(&Log, "factor.bp", Ctx.Parent.load(), Ctx.Op.load());
    Marginals M = SumProductSolver(O).solve(G, GraphLikelihood, &R);
    S.arg("messages", static_cast<double>(R.Updates));
    S.arg("iterations", R.Iterations);
    S.arg("converged", R.Converged ? 1 : 0);
    return M;
  }

private:
  SpanLog &Log;
  SpanContext &Ctx;
};

/// Times every lookup and store of a traced inference
/// (InferOptions::Cache), forwarding to the real cache.
class TimedCache final : public SolveCache {
public:
  TimedCache(SolveCache &Inner, SpanLog &Log, SpanContext &Ctx)
      : Inner(Inner), Log(Log), Ctx(Ctx) {}

  CacheLookup lookup(const std::string &MethodName, uint64_t Key,
                     CachedSolve &Out) override {
    Span S(&Log, "cache.lookup", Ctx.Parent.load(), Ctx.Op.load());
    CacheLookup Result = Inner.lookup(MethodName, Key, Out);
    S.arg("hit", Result == CacheLookup::Hit ? 1 : 0);
    return Result;
  }

  void store(const std::string &MethodName, uint64_t Key,
             const CachedSolve &Entry) override {
    Span S(&Log, "cache.store", Ctx.Parent.load(), Ctx.Op.load());
    Inner.store(MethodName, Key, Entry);
  }

private:
  SolveCache &Inner;
  SpanLog &Log;
  SpanContext &Ctx;
};

//===----------------------------------------------------------------------===//
// CPU choice
//===----------------------------------------------------------------------===//

volatile uint32_t ChaseSink;

/// Seconds a cache-resident pointer chase of \p Steps steps takes: a
/// probe of how fast the current CPU runs right now.
double chaseSeconds(unsigned Steps) {
  static const std::vector<uint32_t> Next = [] {
    std::vector<uint32_t> V(1 << 14);
    for (uint32_t I = 0; I != V.size(); ++I)
      V[I] = (I * 7919 + 1) % V.size();
    return V;
  }();
  Timer T;
  uint32_t At = 0;
  for (unsigned I = 0; I != Steps; ++I)
    At = Next[At];
  ChaseSink = At;
  return T.seconds();
}

/// The CPUs the harness was started on; null when they cannot be read.
const cpu_set_t *allowedCpus() {
  static cpu_set_t Allowed;
  static const bool Known =
      sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0;
  return Known ? &Allowed : nullptr;
}

/// Lets the calling thread, and the threads it starts, use every CPU the
/// harness was started on.
void useAllCpus() {
  if (const cpu_set_t *Allowed = allowedCpus())
    sched_setaffinity(0, sizeof(cpu_set_t), Allowed);
}

/// Pins the calling thread to whichever of its allowed CPUs runs the probe
/// fastest at this moment. On a shared host a CPU's speed changes for
/// seconds at a time with what the host runs beside it, and a lone
/// thread otherwise stays on whichever CPU it started on; single-threaded
/// work starts on the quietest CPU so that its time reflects the code,
/// not the neighbours.
void pinToQuietestCpu() {
  const cpu_set_t *Allowed = allowedCpus();
  if (!Allowed)
    return;
  int Best = -1;
  double BestSeconds = 0;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    if (sched_setaffinity(0, sizeof(One), &One))
      continue;
    chaseSeconds(100000);
    const double Seconds = chaseSeconds(400000);
    if (Best < 0 || Seconds < BestSeconds) {
      Best = Cpu;
      BestSeconds = Seconds;
    }
  }
  if (Best < 0) {
    useAllCpus();
    return;
  }
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Best, &One);
  sched_setaffinity(0, sizeof(One), &One);
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

using telemetry::jsonNumber;
using telemetry::jsonQuote;

/// One JSON object built field by field.
class JsonObject {
public:
  JsonObject &field(const std::string &Key, const std::string &RawValue) {
    Body += (Body.empty() ? "" : ", ") + jsonQuote(Key) + ": " + RawValue;
    return *this;
  }
  JsonObject &num(const std::string &Key, double V) {
    return field(Key, jsonNumber(V));
  }
  JsonObject &flag(const std::string &Key, bool V) {
    return field(Key, V ? "true" : "false");
  }
  JsonObject &str(const std::string &Key, const std::string &V) {
    return field(Key, jsonQuote(V));
  }
  std::string done() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string list(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? ", " : "") + Items[I];
  return Out + "]";
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  std::string WorkDir = ".";
  std::string SpansPath;
  bool Small = false;
};

[[noreturn]] void fatal(const std::string &Message) {
  std::fprintf(stderr, "anek_e2e: %s\n", Message.c_str());
  std::exit(3);
}

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog)
    fatal("generated source failed to analyze:\n" +
          Diags.str().substr(0, 2000));
  return Prog;
}

SpecProvider specsOf(const InferResult &R) {
  return [&R](const MethodDecl *M) { return R.specFor(M); };
}

/// Digest of the program printed with the specs \p R gives it (what
/// `anek infer` prints), so runs over separately parsed copies of one
/// source compare equal exactly when they inferred the same specs.
uint64_t specDigest(const Program &Prog, const InferResult &R) {
  PrintOptions Print;
  Print.SpecFor = [&R](const MethodDecl &M) { return *R.specFor(&M); };
  HashStream H;
  H.str(printProgram(Prog, Print));
  return H.digest();
}

/// One timed operation and the outputs the checks look at.
struct OpSample {
  bool Traced = false;
  double VerdictSeconds = 0;
  double InferSeconds = 0;
  unsigned Warnings = 0;
  unsigned MethodsFailed = 0;
  bool Aborted = false;
  uint64_t SpecDigest = 0;
  std::vector<unsigned> Table4; ///< PMD workloads only.
  int ElimConsistent = -1;      ///< table3 only: 0/1.
  int ElimInRange = -1;         ///< table3 only: 0/1.

  std::string json() const {
    JsonObject O;
    O.flag("traced", Traced)
        .num("verdict_s", VerdictSeconds)
        .num("infer_s", InferSeconds)
        .num("warnings", Warnings)
        .num("methods_failed", MethodsFailed)
        .flag("aborted", Aborted)
        .str("spec_digest", std::to_string(SpecDigest));
    if (!Table4.empty()) {
      std::vector<std::string> Rows;
      for (unsigned N : Table4)
        Rows.push_back(jsonNumber(N));
      O.field("table4", list(Rows));
    }
    if (ElimConsistent >= 0)
      O.flag("elim_consistent", ElimConsistent).flag("elim_in_range",
                                                     ElimInRange);
    return O.done();
  }
};

/// Fills the fields every workload checks from one inference + check.
void observe(OpSample &S, const Program &Prog, const InferResult &R,
             const CheckResult &C) {
  S.Warnings = C.warningCount();
  S.MethodsFailed = R.MethodsFailed;
  S.Aborted = !R.Aborted.isOk();
  S.SpecDigest = specDigest(Prog, R);
}

/// Table 4 rows of \p R against the generator's Bierhoff hand specs, in
/// the paper's order.
std::vector<unsigned> table4Rows(const Program &Prog, const PmdCorpus &Corpus,
                                 const InferResult &R) {
  SpecComparisonTable Table =
      compareSpecs(resolveHandSpecs(Prog, Corpus), R.Inferred);
  std::vector<unsigned> Rows;
  for (SpecCategory C :
       {SpecCategory::Same, SpecCategory::AddedHelpful,
        SpecCategory::AddedConstraining, SpecCategory::Removed,
        SpecCategory::MoreRestrictive, SpecCategory::Wrong})
    Rows.push_back(Table.count(C));
  return Rows;
}

/// Shared state of one harness run.
class Bench {
public:
  explicit Bench(const Options &Opts) : Opts(Opts) {
    Traced = !Opts.SpansPath.empty();
    if (Traced)
      Log = std::make_unique<SpanLog>();
    Bp = Log ? std::make_unique<TimedBp>(*Log, Ctx) : nullptr;
    unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
    Jobs = Opts.Workload == "pmd_j4" ? std::min(4u, Hw) : 1u;
  }

  /// Called before every timed set-up and operation.
  static void chooseCpu(bool SingleThreaded) {
    if (SingleThreaded)
      pinToQuietestCpu();
    else
      useAllCpus();
  }

  int run();

private:
  // Per-workload pieces. A "setup" builds the inputs one operation
  // consumes; an "op" is the timed operation itself.
  struct Inputs {
    PmdCorpus Corpus;                 ///< PMD workloads.
    InlinePrograms Pair;              ///< table3.
    std::unique_ptr<Program> Prog;    ///< PMD program / table3 chain.
    std::unique_ptr<Program> Inlined; ///< table3 only.
    MethodDecl *RunAll = nullptr;     ///< table3 only.
  };

  PmdConfig pmdConfig() const;
  unsigned table3Helpers() const { return Opts.Small ? 48 : 768; }
  bool isPmd() const { return Opts.Workload != "table3"; }

  /// Generates and parses one copy of the workload's inputs.
  Inputs setup(SpanLog *L, uint32_t Parent, uint32_t Op);
  /// One timed operation over fresh inputs. pmd_edit operations edit the
  /// \p Index-th calc<N> body (modulo their number).
  OpSample op(bool Trace, size_t Index);
  /// pmd_edit: one cold inference filling a fresh cache in \p Dir (empty:
  /// in memory). Returns its seconds, set-up included.
  double fillCache(const std::string &Dir, SpanLog *L, uint32_t Parent,
                   uint32_t Op);
  /// One-pass replays of analysis, pfg and constraints over \p Prog.
  void layerPasses(Program &Prog);

  std::string cacheDir() const {
    return (fs::path(Opts.WorkDir) /
            ("e2e-cache-" + std::to_string(::getpid())))
        .string();
  }

  SpanLog *logIf(bool Trace) { return Trace ? Log.get() : nullptr; }
  uint32_t nextOp() { return ++OpCounter; }

  const Options &Opts;
  bool Traced = false;
  unsigned Jobs = 1;
  std::unique_ptr<SpanLog> Log;
  SpanContext Ctx;
  std::unique_ptr<TimedBp> Bp;
  uint32_t OpCounter = 0;

  std::vector<double> SetupSeconds;
  std::vector<OpSample> Ops;

  // pmd_edit state: the cache every operation reopens, and the insertion
  // points of the calc<N> bodies the operations edit in turn.
  PmdCorpus EditBase;
  std::vector<size_t> EditPoints;
};

PmdConfig Bench::pmdConfig() const {
  PmdConfig Config;
  Config.Seed = Opts.Seed;
  if (Opts.Small) {
    Config.Classes = 60;
    Config.Methods = 350;
    Config.Wrappers = 6;
    Config.FullSpecWrappers = 2;
    Config.DirectSites = 40;
    Config.WrapperConsumerSites = 12;
    Config.BuggySites = 2;
    Config.UnannotatedSetters = 2;
  }
  return Config;
}

Bench::Inputs Bench::setup(SpanLog *L, uint32_t Parent, uint32_t Op) {
  Inputs In;
  if (isPmd()) {
    {
      Span S(L, "corpus.generate", Parent, Op);
      In.Corpus = generatePmdCorpus(pmdConfig());
    }
    Span S(L, "lang.parse", Parent, Op);
    In.Prog = analyze(In.Corpus.Source);
    return In;
  }
  {
    Span S(L, "corpus.generate", Parent, Op);
    In.Pair = generateInlineComparison(table3Helpers(), Opts.Seed);
  }
  {
    Span S(L, "lang.parse", Parent, Op);
    In.Prog = analyze(In.Pair.Modular);
    In.Inlined = analyze(In.Pair.Inlined);
  }
  for (MethodDecl *M : In.Inlined->methodsWithBodies())
    if (M->Name == "runAll")
      In.RunAll = M;
  if (!In.RunAll)
    fatal("inlined program has no runAll method");
  return In;
}

double Bench::fillCache(const std::string &Dir, SpanLog *L, uint32_t Parent,
                        uint32_t Op) {
  std::error_code Ignored;
  if (!Dir.empty())
    fs::remove_all(Dir, Ignored);
  chooseCpu(true);
  Timer T;
  Inputs In = setup(L, Parent, Op);
  std::unique_ptr<cache::SummaryCache> Cache;
  {
    Span S(L, "cache.open", Parent, Op);
    Cache = std::make_unique<cache::SummaryCache>(Dir);
  }
  std::unique_ptr<TimedCache> Timed;
  if (L)
    Timed = std::make_unique<TimedCache>(*Cache, *L, Ctx);
  InferOptions IOpts;
  IOpts.Parallelism = 1;
  IOpts.Cache = Timed ? static_cast<SolveCache *>(Timed.get()) : Cache.get();
  IOpts.Bp = L ? Bp.get() : nullptr;
  Span S(L, "infer", Parent, Op);
  Ctx.Parent = S.id();
  Ctx.Op = Op;
  InferResult R = runAnekInfer(*In.Prog, IOpts);
  S.arg("stores", R.Cache.Stores);
  const double Seconds = T.seconds();
  EditBase = std::move(In.Corpus);
  return Seconds;
}

OpSample Bench::op(bool Trace, size_t Index) {
  SpanLog *L = logIf(Trace);
  OpSample Out;
  Out.Traced = Trace;

  // Inputs of this operation: for the cold workloads a fresh generate +
  // parse, untimed.
  Inputs In;
  std::string EditedSource;
  if (Opts.Workload == "pmd_edit") {
    EditedSource = EditBase.Source;
    EditedSource.insert(EditPoints[Index % EditPoints.size()],
                        "    r = r + 7;\n");
  } else {
    const uint32_t SetupOp = nextOp();
    Span Root(L, "setup", 0, SetupOp);
    In = setup(L, Root.id(), SetupOp);
  }

  chooseCpu(Jobs == 1);
  const uint32_t OpId = nextOp();
  Span Root(L, "op", 0, OpId);
  std::unique_ptr<cache::SummaryCache> Cache;
  std::unique_ptr<TimedCache> Timed;
  InferOptions IOpts;
  IOpts.Parallelism = Jobs;
  IOpts.Bp = L ? Bp.get() : nullptr;

  Timer Verdict;
  if (Opts.Workload == "pmd_edit") {
    {
      Span S(L, "lang.parse", Root.id(), OpId);
      In.Prog = analyze(EditedSource);
    }
    {
      Span S(L, "cache.open", Root.id(), OpId);
      Cache = std::make_unique<cache::SummaryCache>(cacheDir());
    }
    if (L)
      Timed = std::make_unique<TimedCache>(*Cache, *L, Ctx);
    IOpts.Cache =
        Timed ? static_cast<SolveCache *>(Timed.get()) : Cache.get();
  }

  InferResult R;
  {
    Span S(L, "infer", Root.id(), OpId);
    Ctx.Parent = S.id();
    Ctx.Op = OpId;
    Timer T;
    R = runAnekInfer(*In.Prog, IOpts);
    Out.InferSeconds = T.seconds();
    S.arg("picks", R.WorklistPicks);
    S.arg("analyzed", R.MethodsAnalyzed);
    S.arg("fallback_solves", R.FallbackSolves);
    S.arg("specs", R.inferredAnnotationCount());
    S.arg("failed_methods", R.MethodsFailed);
    S.arg("solve_seconds", R.SolveSeconds);
    S.arg("jobs", Jobs);
  }
  CheckResult C;
  {
    Span S(L, "plural.check", Root.id(), OpId);
    C = runChecker(*In.Prog, specsOf(R));
    S.arg("warnings", C.warningCount());
  }
  if (Opts.Workload == "table3") {
    // Table 3's baseline row: PLURAL's local inference on the inlined
    // method, from the parsed AST.
    Span S(L, "plural.elim", Root.id(), OpId);
    MethodIr Ir;
    Pfg G;
    LocalInferenceResult Local;
    {
      Span Sub(L, "analysis.lower", S.id(), OpId);
      Ir = lowerToIr(*In.RunAll);
    }
    {
      Span Sub(L, "pfg.build", S.id(), OpId);
      G = buildPfg(Ir);
    }
    {
      Span Sub(L, "plural.local_inference", S.id(), OpId);
      Local = runLocalInference(G);
    }
    Out.ElimConsistent = Local.Consistent;
    Out.ElimInRange = Local.InRange;
    S.arg("ops", static_cast<double>(Local.EliminationOps));
    S.arg("vars", Local.NumVariables);
    S.arg("eqs", Local.NumEquations);
  }
  Out.VerdictSeconds = Verdict.seconds();

  observe(Out, *In.Prog, R, C);
  if (isPmd())
    Out.Table4 = table4Rows(*In.Prog,
                            Opts.Workload == "pmd_edit" ? EditBase : In.Corpus,
                            R);
  return Out;
}

void Bench::layerPasses(Program &Prog) {
  SpanLog *L = Log.get();
  const uint32_t OpId = nextOp();
  Span Root(L, "passes", 0, OpId);
  {
    Span S(L, "analysis.callgraph", Root.id(), OpId);
    CallGraph CG(Prog);
    std::vector<std::vector<MethodDecl *>> Waves = CG.sccWaves();
    size_t Widest = 0;
    for (const auto &W : Waves)
      Widest = std::max(Widest, W.size());
    S.arg("waves", Waves.size());
    S.arg("widest_wave", Widest);
  }
  std::vector<MethodIr> Irs;
  {
    Span S(L, "analysis.ir_pass", Root.id(), OpId);
    for (MethodDecl *M : Prog.methodsWithBodies())
      Irs.push_back(lowerToIr(*M));
    S.arg("methods", Irs.size());
  }
  std::vector<Pfg> Pfgs;
  {
    Span S(L, "pfg.build_pass", Root.id(), OpId);
    double Nodes = 0, Edges = 0;
    for (const MethodIr &Ir : Irs) {
      Pfgs.push_back(buildPfg(Ir));
      Nodes += Pfgs.back().nodeCount();
      Edges += Pfgs.back().edgeCount();
    }
    S.arg("nodes", Nodes);
    S.arg("edges", Edges);
  }
  {
    Span S(L, "constraints.pass", Root.id(), OpId);
    double Vars = 0, Factors = 0;
    for (const Pfg &P : Pfgs) {
      FactorGraph G;
      PfgVarMap VarMap(P, G);
      generateConstraints(P, G, VarMap);
      Vars += G.variableCount();
      Factors += G.factorCount();
    }
    S.arg("vars", Vars);
    S.arg("factors", Factors);
  }
}

int Bench::run() {
  // Set-up the workload pays before any operation.
  if (Opts.Workload == "pmd_edit") {
    // Each timed set-up fills a fresh in-memory cache: the same store path
    // and blob codec without the file writes, whose time on a journaled
    // filesystem varies several-fold from run to run. The operations
    // reopen an on-disk cache filled once more, untimed.
    const unsigned Fills = Traced ? 1 : 5;
    for (unsigned I = 0; I != Fills; ++I) {
      const uint32_t SetupOp = nextOp();
      Span Root(Log.get(), "setup", 0, SetupOp);
      SetupSeconds.push_back(fillCache("", Log.get(), Root.id(), SetupOp));
    }
    fillCache(cacheDir(), nullptr, 0, 0);
    const std::string Needle = "(int a, int b) {\n    int r = a;\n";
    for (size_t At = EditBase.Source.find("int calc"); At != std::string::npos;
         At = EditBase.Source.find("int calc", At + 1)) {
      const size_t Open = EditBase.Source.find('(', At);
      if (Open != std::string::npos &&
          EditBase.Source.compare(Open, Needle.size(), Needle) == 0)
        EditPoints.push_back(Open + Needle.size());
    }
    if (EditPoints.empty())
      fatal("no calc<N> method to edit");
  } else if (!Traced) {
    // Set-up takes milliseconds, so its median needs many samples. All
    // are taken before the first operation, in the same process state.
    for (unsigned I = 0; I != 25; ++I) {
      chooseCpu(true);
      Timer T;
      Inputs In = setup(nullptr, 0, 0);
      SetupSeconds.push_back(T.seconds());
    }
  }

  if (Traced) {
    const uint32_t SetupOp = nextOp();
    Inputs In;
    {
      Span Root(Log.get(), "setup", 0, SetupOp);
      In = setup(Log.get(), Root.id(), SetupOp);
    }
    layerPasses(*In.Prog);
  }

  // Measure: untraced operations, or (traced) pairs of a traced and an
  // untraced operation on the same input, whose infer_s difference is the
  // tracing overhead and whose specs and warnings must agree.
  Timer Measure;
  size_t Index = 0;
  do {
    Ops.push_back(op(Traced, Index));
    if (Traced)
      Ops.push_back(op(false, Index));
    ++Index;
  } while (Measure.seconds() < Opts.Seconds);

  if (Traced) {
    std::ofstream Out(Opts.SpansPath, std::ios::trunc);
    Out << "{\"workload\": " << jsonQuote(Opts.Workload)
        << ", \"run_id\": " << jsonQuote(Opts.Workload + "-" +
                                         std::to_string(Opts.Seed) + "-" +
                                         std::to_string(::getpid()))
        << ", \"jobs\": " << Jobs << ",\n \"spans\": [";
    bool First = true;
    for (const SpanRecord &R : Log->spans()) {
      Out << (First ? "\n  " : ",\n  ") << "[" << R.Id << ", " << R.Parent
          << ", " << R.Op << ", " << R.Thread << ", " << jsonQuote(R.Name)
          << ", " << R.StartNs << ", " << R.EndNs << ", {";
      for (unsigned I = 0; I != R.NumArgs; ++I)
        Out << (I ? ", " : "") << jsonQuote(R.Args[I].first) << ": "
            << jsonNumber(R.Args[I].second);
      Out << "}]";
      First = false;
    }
    Out << "\n]}\n";
    if (!Out)
      fatal("cannot write spans to " + Opts.SpansPath);
  }

  std::error_code Ignored;
  fs::remove_all(cacheDir(), Ignored);

  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  std::vector<std::string> Setups, OpJson;
  for (double S : SetupSeconds)
    Setups.push_back(jsonNumber(S));
  for (const OpSample &S : Ops)
    OpJson.push_back(S.json());
  JsonObject Result;
  Result.str("workload", Opts.Workload)
      .field("seed", std::to_string(Opts.Seed))
      .num("jobs", Jobs)
      .num("nproc", std::thread::hardware_concurrency())
      .str("kernel_backend",
           kern::kernelBackendName(kern::activeKernelBackend()))
      .str("build_type", ANEK_E2E_BUILD_TYPE)
      .num("peak_rss_mb", Usage.ru_maxrss / 1024.0)
      .field("setup_s", list(Setups))
      .field("ops", list(OpJson));
  std::printf("%s\n", Result.done().c_str());
  return 0;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        fatal("missing value for " + Arg);
      return Argv[++I];
    };
    if (Arg == "--workload")
      Opts.Workload = Value();
    else if (Arg == "--seed")
      Opts.Seed = std::stoull(Value());
    else if (Arg == "--seconds")
      Opts.Seconds = std::stod(Value());
    else if (Arg == "--work-dir")
      Opts.WorkDir = Value();
    else if (Arg == "--spans")
      Opts.SpansPath = Value();
    else if (Arg == "--small")
      Opts.Small = true;
    else
      return false;
  }
  return Opts.Workload == "pmd_j1" || Opts.Workload == "pmd_j4" ||
         Opts.Workload == "table3" || Opts.Workload == "pmd_edit";
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::fprintf(stderr,
                 "usage: anek_e2e --workload pmd_j1|pmd_j4|table3|pmd_edit "
                 "--seed N --seconds S --work-dir DIR [--spans FILE] "
                 "[--small]\n");
    return 2;
  }
  return Bench(Opts).run();
}
