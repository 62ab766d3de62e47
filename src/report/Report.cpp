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
  int64_t MinTs = 0, MaxEnd = 0;
  bool AnySpan = false;
  for (const json::Value &E : Events.Items) {
    std::string Ph = E.at("ph").str();
    if (Ph == "M")
      continue; // Lane-name metadata, not a timed event.
    ++P.TraceEvents;
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
    // "Phases" are the top-of-stack spans: what the run was doing, not
    // what every nested helper was doing.
    if (Depth == 0)
      Bump(Phases);
  }
  P.HasTrace = true;
  if (auto It = Spans.find("infer.merge"); It != Spans.end())
    P.MergeUs = It->second.TotalUs;
  if (auto It = Spans.find("infer.phase2.waves"); It != Spans.end())
    P.Phase2Us = It->second.TotalUs;
  P.Phases = sortedStats(std::move(Phases));
  P.Spans = sortedStats(std::move(Spans));
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

  auto Counter = [&](const char *Name) -> uint64_t {
    auto It = P.Counters.find(Name);
    return It == P.Counters.end() ? 0 : It->second;
  };
  auto HistogramSum = [&](const char *Name) -> uint64_t {
    auto It = P.Histograms.find(Name);
    return It == P.Histograms.end() ? 0
                                    : static_cast<uint64_t>(It->second.Sum);
  };
  uint64_t Hits = Counter("cache.hit"), Misses = Counter("cache.miss");
  if (Hits + Misses > 0)
    P.CacheHitRate = static_cast<double>(Hits) /
                     static_cast<double>(Hits + Misses);
  P.MethodRunUs = HistogramSum("infer.method_run_us");
  P.Picks = Counter("infer.worklist_picks");
  P.Replays = Counter("infer.replays");
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
                                          const std::string &MetricsJson) {
  Profile P;
  if (!TraceJson.empty())
    if (Status S = digestTrace(TraceJson, P); !S)
      return S;
  if (!MetricsJson.empty())
    if (Status S = digestMetrics(MetricsJson, P); !S)
      return S;
  if (!P.HasTrace && !P.HasMetrics)
    return Status::error(ErrorCode::InvalidArgument,
                         "nothing to profile: no artifact provided");
  return P;
}

Expected<Profile> report::buildProfile(const std::string &TracePath,
                                       const std::string &MetricsPath) {
  std::string Trace, Metrics;
  if (!TracePath.empty())
    if (Status S = readFileInto(TracePath, Trace); !S)
      return S;
  if (!MetricsPath.empty())
    if (Status S = readFileInto(MetricsPath, Metrics); !S)
      return S;
  return profileFromText(Trace, Metrics);
}

std::string report::renderText(const Profile &P, unsigned TopK) {
  std::string Out;
  Out += "anek run profile\n";
  Out += "================\n";
  if (P.HasTrace) {
    Out += formatStr("\ntrace: %llu events over %s",
                     static_cast<unsigned long long>(P.TraceEvents),
                     formatUs(P.TraceSpanUs).c_str());
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
    // Trace-derived, but listed with the run-wide figures below it.
    if (P.Phase2Us > 0)
      Out += formatStr(
          "  serial merge          %s / %s (%.1f%% of phase 2)\n",
          formatUs(P.MergeUs).c_str(), formatUs(P.Phase2Us).c_str(),
          100.0 * static_cast<double>(P.MergeUs) /
              static_cast<double>(P.Phase2Us));
    if (P.Picks)
      Out += formatStr("  replayed picks        %llu / %llu (%.1f%%)\n",
                       static_cast<unsigned long long>(P.Replays),
                       static_cast<unsigned long long>(P.Picks),
                       100.0 * static_cast<double>(P.Replays) /
                           static_cast<double>(P.Picks));
    for (const auto &[Name, H] : P.Histograms)
      Out += formatStr("  %-28s n=%-8llu p50=%-10.4g p95=%-10.4g "
                       "p99=%.4g\n",
                       Name.c_str(),
                       static_cast<unsigned long long>(H.Count), H.P50,
                       H.P95, H.P99);
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
    Out += "    \"merge_us\": " +
           jsonNumber(static_cast<double>(P.MergeUs)) + ",\n";
    Out += "    \"phase2_us\": " +
           jsonNumber(static_cast<double>(P.Phase2Us)) + ",\n";
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
    Out += "    \"method_run_us\": " +
           jsonNumber(static_cast<double>(P.MethodRunUs)) + ",\n";
    Out += "    \"picks\": " + jsonNumber(static_cast<double>(P.Picks)) +
           ",\n";
    Out += "    \"replayed_picks\": " +
           jsonNumber(static_cast<double>(P.Replays)) + ",\n";
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
  Out += "\n}\n";
  return Out;
}
