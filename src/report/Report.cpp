//===- Report.cpp - The `anek report` run profiler --------------------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "report/Report.h"

#include "support/Format.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace anek;
using namespace anek::report;

namespace {

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// True for the counter/histogram \p Name naming metric \p Leaf either
/// directly or under an aggregation prefix ("shard.worker.cache.hit"
/// counts toward "cache.hit" — worker-side work is still work).
bool namesMetric(const std::string &Name, const char *Leaf) {
  return Name == Leaf || endsWith(Name, std::string(".") + Leaf);
}

std::vector<SpanStat> sortedStats(std::map<std::string, SpanStat> &&ByName) {
  std::vector<SpanStat> Out;
  Out.reserve(ByName.size());
  for (auto &[Name, S] : ByName)
    Out.push_back(std::move(S));
  std::stable_sort(Out.begin(), Out.end(),
                   [](const SpanStat &A, const SpanStat &B) {
                     if (A.TotalUs != B.TotalUs)
                       return A.TotalUs > B.TotalUs;
                     return A.Name < B.Name;
                   });
  return Out;
}

Status digestTrace(const std::string &Text, Profile &P) {
  json::Value Doc;
  std::string Error;
  if (!json::parse(Text, Doc, &Error))
    return Status::error(ErrorCode::InvalidArgument,
                         "malformed trace file: " + Error);
  const json::Value &Events = Doc.at("traceEvents");
  if (Events.K != json::Value::Array)
    return Status::error(ErrorCode::InvalidArgument,
                         "trace file has no traceEvents array");
  std::map<std::string, SpanStat> Phases, Spans;
  std::map<unsigned, bool> Pids;
  int64_t MinTs = 0, MaxEnd = 0;
  bool AnySpan = false;
  for (const json::Value &E : Events.Items) {
    std::string Ph = E.at("ph").str();
    if (Ph == "M")
      continue; // Lane-name metadata, not a timed event.
    ++P.TraceEvents;
    unsigned Pid = static_cast<unsigned>(E.at("pid").num(1.0));
    if (Pid != 1)
      Pids[Pid] = true;
    if (Ph != "X")
      continue;
    std::string Name = E.at("name").str();
    int64_t Ts = static_cast<int64_t>(E.at("ts").num());
    int64_t Dur = static_cast<int64_t>(E.at("dur").num());
    unsigned Depth = static_cast<unsigned>(E.at("args").at("depth").num());
    if (!AnySpan) {
      MinTs = Ts;
      MaxEnd = Ts + Dur;
      AnySpan = true;
    } else {
      MinTs = std::min(MinTs, Ts);
      MaxEnd = std::max(MaxEnd, Ts + Dur);
    }
    auto Bump = [&](std::map<std::string, SpanStat> &Into) {
      SpanStat &S = Into[Name];
      S.Name = Name;
      ++S.Count;
      S.TotalUs += Dur;
      S.MaxUs = std::max(S.MaxUs, Dur);
    };
    Bump(Spans);
    // "Phases" are the local process's top-of-stack spans: what the run
    // was doing, not what every nested helper was doing.
    if (Depth == 0 && Pid == 1)
      Bump(Phases);
  }
  P.HasTrace = true;
  P.Phases = sortedStats(std::move(Phases));
  P.Spans = sortedStats(std::move(Spans));
  for (const auto &[Pid, Seen] : Pids)
    P.WorkerPids.push_back(Pid);
  P.TraceSpanUs = AnySpan ? MaxEnd - MinTs : 0;
  return Status::ok();
}

Status digestMetrics(const std::string &Text, Profile &P) {
  json::Value Doc;
  std::string Error;
  if (!json::parse(Text, Doc, &Error))
    return Status::error(ErrorCode::InvalidArgument,
                         "malformed metrics file: " + Error);
  if (Doc.at("schema").str() != "anek-metrics-v1")
    return Status::error(ErrorCode::InvalidArgument,
                         "metrics file is not anek-metrics-v1");
  for (const auto &[Name, V] : Doc.at("counters").Fields)
    P.Counters[Name] = static_cast<uint64_t>(V.num());
  for (const auto &[Name, V] : Doc.at("histograms").Fields) {
    Profile::HistRow Row;
    Row.Count = static_cast<uint64_t>(V.at("count").num());
    Row.Sum = V.at("sum").num();
    Row.P50 = V.at("p50").num();
    Row.P95 = V.at("p95").num();
    Row.P99 = V.at("p99").num();
    P.Histograms[Name] = Row;
  }
  P.HasMetrics = true;

  uint64_t Hits = 0, Misses = 0;
  for (const auto &[Name, V] : P.Counters) {
    if (namesMetric(Name, "cache.hit"))
      Hits += V;
    if (namesMetric(Name, "cache.miss"))
      Misses += V;
  }
  if (Hits + Misses > 0)
    P.CacheHitRate = static_cast<double>(Hits) /
                     static_cast<double>(Hits + Misses);
  for (const auto &[Name, H] : P.Histograms) {
    if (namesMetric(Name, "infer.queue_wait_us"))
      P.QueueWaitUs += static_cast<uint64_t>(H.Sum);
    if (namesMetric(Name, "infer.method_run_us"))
      P.MethodRunUs += static_cast<uint64_t>(H.Sum);
  }
  auto Counter = [&](const char *Name) -> uint64_t {
    auto It = P.Counters.find(Name);
    return It == P.Counters.end() ? 0 : It->second;
  };
  P.Picks = Counter("infer.worklist_picks");
  P.Replays = Counter("infer.replays");
  P.WorkersSpawned = Counter("shard.workers_spawned");
  P.WorkersLost = Counter("shard.workers_lost");
  P.Redispatches = Counter("shard.redispatches");
  P.Quarantined = Counter("shard.quarantined");
  P.TelemetryFrames = Counter("shard.telemetry_frames");
  P.TelemetryDropped = Counter("shard.telemetry_dropped");
  return Status::ok();
}

Status digestBatch(const std::string &Text, Profile &P) {
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    json::Value Doc;
    std::string Error;
    if (!json::parse(Line, Doc, &Error))
      return Status::error(ErrorCode::InvalidArgument,
                           formatStr("malformed batch line %u: %s", LineNo,
                                     Error.c_str()));
    if (Doc.at("schema").str() != "anek-batch-v1")
      return Status::error(
          ErrorCode::InvalidArgument,
          formatStr("batch line %u is not anek-batch-v1", LineNo));
    RequestRow Row;
    Row.Index = static_cast<unsigned>(Doc.at("index").num());
    Row.Id = Doc.at("id").str();
    Row.State = Doc.at("state").str();
    Row.Attempts = static_cast<unsigned>(Doc.at("attempts").num());
    Row.Seconds = Doc.at("seconds").num();
    Row.QueueSeconds = Doc.at("queue_seconds").num();
    Row.CacheHits = static_cast<uint64_t>(Doc.at("cache_hits").num());
    Row.CacheMisses = static_cast<uint64_t>(Doc.at("cache_misses").num());
    Row.Reason = Doc.at("reason").str();
    ++P.StateCounts[Row.State];
    P.BatchSeconds += Row.Seconds;
    P.BatchQueueSeconds += Row.QueueSeconds;
    P.BatchCacheHits += Row.CacheHits;
    P.BatchCacheMisses += Row.CacheMisses;
    P.Requests.push_back(std::move(Row));
  }
  P.HasBatch = true;
  std::stable_sort(P.Requests.begin(), P.Requests.end(),
                   [](const RequestRow &A, const RequestRow &B) {
                     return A.Index < B.Index;
                   });
  return Status::ok();
}

Status readFileInto(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Status::error(ErrorCode::InvalidArgument,
                         "cannot read '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return Status::ok();
}

std::string formatUs(int64_t Us) {
  if (Us >= 1000000)
    return formatStr("%.2fs", static_cast<double>(Us) / 1e6);
  return formatStr("%.2fms", static_cast<double>(Us) / 1e3);
}

} // namespace

Expected<Profile> report::profileFromText(const std::string &TraceJson,
                                          const std::string &MetricsJson,
                                          const std::string &BatchJsonl) {
  Profile P;
  if (!TraceJson.empty())
    if (Status S = digestTrace(TraceJson, P); !S)
      return S;
  if (!MetricsJson.empty())
    if (Status S = digestMetrics(MetricsJson, P); !S)
      return S;
  if (!BatchJsonl.empty())
    if (Status S = digestBatch(BatchJsonl, P); !S)
      return S;
  if (!P.HasTrace && !P.HasMetrics && !P.HasBatch)
    return Status::error(ErrorCode::InvalidArgument,
                         "nothing to profile: no artifact provided");
  return P;
}

Expected<Profile> report::buildProfile(const std::string &TracePath,
                                       const std::string &MetricsPath,
                                       const std::string &BatchPath) {
  std::string Trace, Metrics, Batch;
  if (!TracePath.empty())
    if (Status S = readFileInto(TracePath, Trace); !S)
      return S;
  if (!MetricsPath.empty())
    if (Status S = readFileInto(MetricsPath, Metrics); !S)
      return S;
  if (!BatchPath.empty())
    if (Status S = readFileInto(BatchPath, Batch); !S)
      return S;
  return profileFromText(Trace, Metrics, Batch);
}

std::string report::renderText(const Profile &P, unsigned TopK) {
  std::string Out;
  Out += "anek run profile\n";
  Out += "================\n";
  if (P.HasTrace) {
    Out += formatStr("\ntrace: %llu events over %s",
                     static_cast<unsigned long long>(P.TraceEvents),
                     formatUs(P.TraceSpanUs).c_str());
    if (!P.WorkerPids.empty()) {
      Out += formatStr(", %zu worker lane(s):", P.WorkerPids.size());
      for (unsigned Pid : P.WorkerPids)
        Out += formatStr(" %u", Pid);
    }
    Out += "\n\nphases (top-level spans)\n";
    for (const SpanStat &S : P.Phases)
      Out += formatStr("  %-28s %10s  x%llu\n", S.Name.c_str(),
                       formatUs(S.TotalUs).c_str(),
                       static_cast<unsigned long long>(S.Count));
    Out += formatStr("\ntop %u spans by total time\n",
                     std::min<unsigned>(TopK,
                                        static_cast<unsigned>(P.Spans.size())));
    unsigned Shown = 0;
    for (const SpanStat &S : P.Spans) {
      if (Shown++ == TopK)
        break;
      Out += formatStr("  %-28s %10s  x%-6llu max %s\n", S.Name.c_str(),
                       formatUs(S.TotalUs).c_str(),
                       static_cast<unsigned long long>(S.Count),
                       formatUs(S.MaxUs).c_str());
    }
  }
  if (P.HasMetrics) {
    Out += "\nmetrics\n";
    if (P.CacheHitRate >= 0.0)
      Out += formatStr("  cache hit rate        %.1f%%\n",
                       P.CacheHitRate * 100.0);
    if (P.QueueWaitUs || P.MethodRunUs) {
      uint64_t Total = P.QueueWaitUs + P.MethodRunUs;
      Out += formatStr(
          "  queue-wait vs solve   %s / %s (%.1f%% waiting)\n",
          formatUs(static_cast<int64_t>(P.QueueWaitUs)).c_str(),
          formatUs(static_cast<int64_t>(P.MethodRunUs)).c_str(),
          Total ? 100.0 * static_cast<double>(P.QueueWaitUs) /
                      static_cast<double>(Total)
                : 0.0);
    }
    if (P.Picks)
      Out += formatStr("  replayed picks        %llu / %llu (%.1f%%)\n",
                       static_cast<unsigned long long>(P.Replays),
                       static_cast<unsigned long long>(P.Picks),
                       100.0 * static_cast<double>(P.Replays) /
                           static_cast<double>(P.Picks));
    if (P.WorkersSpawned || P.WorkersLost || P.Quarantined)
      Out += formatStr("  shard tier            %llu spawned, %llu lost, "
                       "%llu re-dispatched, %llu quarantined\n",
                       static_cast<unsigned long long>(P.WorkersSpawned),
                       static_cast<unsigned long long>(P.WorkersLost),
                       static_cast<unsigned long long>(P.Redispatches),
                       static_cast<unsigned long long>(P.Quarantined));
    if (P.TelemetryFrames || P.TelemetryDropped)
      Out += formatStr("  worker telemetry      %llu frame(s), %llu "
                       "dropped\n",
                       static_cast<unsigned long long>(P.TelemetryFrames),
                       static_cast<unsigned long long>(P.TelemetryDropped));
    for (const auto &[Name, H] : P.Histograms)
      Out += formatStr("  %-28s n=%-8llu p50=%-10.4g p95=%-10.4g "
                       "p99=%.4g\n",
                       Name.c_str(),
                       static_cast<unsigned long long>(H.Count), H.P50,
                       H.P95, H.P99);
  }
  if (P.HasBatch) {
    Out += formatStr("\nbatch: %zu request(s)", P.Requests.size());
    bool FirstState = true;
    for (const auto &[State, N] : P.StateCounts) {
      Out += FirstState ? " — " : ", ";
      FirstState = false;
      Out += formatStr("%u %s", N, State.c_str());
    }
    Out += formatStr("\n  execution %.3fs, queue wait %.3fs", P.BatchSeconds,
                     P.BatchQueueSeconds);
    if (P.BatchCacheHits + P.BatchCacheMisses)
      Out += formatStr(", cache %llu/%llu hits",
                       static_cast<unsigned long long>(P.BatchCacheHits),
                       static_cast<unsigned long long>(P.BatchCacheHits +
                                                       P.BatchCacheMisses));
    Out += "\n\n  idx id               state     att  seconds   queue     "
           "cache\n";
    for (const RequestRow &R : P.Requests) {
      Out += formatStr("  %-3u %-16s %-9s %-4u %-9.3f %-9.3f %llu/%llu",
                       R.Index, R.Id.c_str(), R.State.c_str(), R.Attempts,
                       R.Seconds, R.QueueSeconds,
                       static_cast<unsigned long long>(R.CacheHits),
                       static_cast<unsigned long long>(R.CacheHits +
                                                       R.CacheMisses));
      if (!R.Reason.empty())
        Out += "  " + R.Reason;
      Out += "\n";
    }
  }
  return Out;
}

std::string report::renderJson(const Profile &P, unsigned TopK) {
  using telemetry::jsonNumber;
  using telemetry::jsonQuote;
  std::string Out = "{\n  \"schema\": \"anek-report-v1\"";
  auto SpanArray = [&](const std::vector<SpanStat> &Stats, unsigned Limit) {
    std::string A = "[";
    bool First = true;
    unsigned Shown = 0;
    for (const SpanStat &S : Stats) {
      if (Shown++ == Limit)
        break;
      A += First ? "\n" : ",\n";
      First = false;
      A += "      {\"name\": " + jsonQuote(S.Name) +
           ", \"count\": " + jsonNumber(static_cast<double>(S.Count)) +
           ", \"total_us\": " + jsonNumber(static_cast<double>(S.TotalUs)) +
           ", \"max_us\": " + jsonNumber(static_cast<double>(S.MaxUs)) + "}";
    }
    A += First ? "]" : "\n    ]";
    return A;
  };
  if (P.HasTrace) {
    Out += ",\n  \"trace\": {\n";
    Out += "    \"events\": " +
           jsonNumber(static_cast<double>(P.TraceEvents)) + ",\n";
    Out += "    \"span_us\": " +
           jsonNumber(static_cast<double>(P.TraceSpanUs)) + ",\n";
    Out += "    \"worker_pids\": [";
    for (size_t I = 0; I != P.WorkerPids.size(); ++I)
      Out += (I ? ", " : "") + jsonNumber(P.WorkerPids[I]);
    Out += "],\n";
    Out += "    \"phases\": " +
           SpanArray(P.Phases, static_cast<unsigned>(P.Phases.size())) +
           ",\n";
    Out += "    \"top_spans\": " + SpanArray(P.Spans, TopK) + "\n  }";
  }
  if (P.HasMetrics) {
    Out += ",\n  \"metrics\": {\n";
    Out += "    \"cache_hit_rate\": " +
           (P.CacheHitRate >= 0.0 ? jsonNumber(P.CacheHitRate) : "null") +
           ",\n";
    Out += "    \"queue_wait_us\": " +
           jsonNumber(static_cast<double>(P.QueueWaitUs)) + ",\n";
    Out += "    \"method_run_us\": " +
           jsonNumber(static_cast<double>(P.MethodRunUs)) + ",\n";
    Out += "    \"picks\": " + jsonNumber(static_cast<double>(P.Picks)) +
           ",\n";
    Out += "    \"replayed_picks\": " +
           jsonNumber(static_cast<double>(P.Replays)) + ",\n";
    Out += "    \"shard\": {\"workers_spawned\": " +
           jsonNumber(static_cast<double>(P.WorkersSpawned)) +
           ", \"workers_lost\": " +
           jsonNumber(static_cast<double>(P.WorkersLost)) +
           ", \"redispatches\": " +
           jsonNumber(static_cast<double>(P.Redispatches)) +
           ", \"quarantined\": " +
           jsonNumber(static_cast<double>(P.Quarantined)) +
           ", \"telemetry_frames\": " +
           jsonNumber(static_cast<double>(P.TelemetryFrames)) +
           ", \"telemetry_dropped\": " +
           jsonNumber(static_cast<double>(P.TelemetryDropped)) + "},\n";
    Out += "    \"histograms\": {";
    bool First = true;
    for (const auto &[Name, H] : P.Histograms) {
      Out += First ? "\n" : ",\n";
      First = false;
      Out += "      " + jsonQuote(Name) +
             ": {\"count\": " + jsonNumber(static_cast<double>(H.Count)) +
             ", \"sum\": " + jsonNumber(H.Sum) +
             ", \"p50\": " + jsonNumber(H.P50) +
             ", \"p95\": " + jsonNumber(H.P95) +
             ", \"p99\": " + jsonNumber(H.P99) + "}";
    }
    Out += First ? "}" : "\n    }";
    Out += "\n  }";
  }
  if (P.HasBatch) {
    Out += ",\n  \"batch\": {\n";
    Out += "    \"requests\": " +
           jsonNumber(static_cast<double>(P.Requests.size())) + ",\n";
    Out += "    \"states\": {";
    bool First = true;
    for (const auto &[State, N] : P.StateCounts) {
      Out += First ? "" : ", ";
      First = false;
      Out += jsonQuote(State) + ": " + jsonNumber(N);
    }
    Out += "},\n";
    Out += "    \"seconds\": " + jsonNumber(P.BatchSeconds) + ",\n";
    Out += "    \"queue_seconds\": " + jsonNumber(P.BatchQueueSeconds) +
           ",\n";
    Out += "    \"cache_hits\": " +
           jsonNumber(static_cast<double>(P.BatchCacheHits)) + ",\n";
    Out += "    \"cache_misses\": " +
           jsonNumber(static_cast<double>(P.BatchCacheMisses)) + ",\n";
    Out += "    \"rows\": [";
    First = true;
    for (const RequestRow &R : P.Requests) {
      Out += First ? "\n" : ",\n";
      First = false;
      Out += "      {\"index\": " + jsonNumber(R.Index) +
             ", \"id\": " + jsonQuote(R.Id) +
             ", \"state\": " + jsonQuote(R.State) +
             ", \"attempts\": " + jsonNumber(R.Attempts) +
             ", \"seconds\": " + jsonNumber(R.Seconds) +
             ", \"queue_seconds\": " + jsonNumber(R.QueueSeconds) +
             ", \"cache_hits\": " +
             jsonNumber(static_cast<double>(R.CacheHits)) +
             ", \"cache_misses\": " +
             jsonNumber(static_cast<double>(R.CacheMisses));
      if (!R.Reason.empty())
        Out += ", \"reason\": " + jsonQuote(R.Reason);
      Out += "}";
    }
    Out += First ? "]" : "\n    ]";
    Out += "\n  }";
  }
  Out += "\n}\n";
  return Out;
}
