//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the gcassert project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "gcassert/support/OStream.h"
#include "gcassert/support/Timer.h"
#include "gcassert/telemetry/TraceEvents.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <unistd.h>

using namespace gcassert;

namespace perfbench {

const std::vector<std::string> &suitePrograms() {
  static const std::vector<std::string> Programs = {
      "compress", "jess",  "db",      "javac",   "mpegaudio",
      "mtrt",     "jack",  "antlr",   "bloat",   "chart",
      "eclipse",  "fop",   "hsqldb",  "jython",  "luindex",
      "lusearch", "pmd",   "xalan",   "pseudojbb"};
  return Programs;
}

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"throughput_rps", "1/s"}, {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},  {"latency_p999_us", "us"},
      {"gc_s", "s"},             {"rss_peak_mib", "MiB"},
  };
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"serving.service_us.p50", "us"},
        {"serving.service_us.p99", "us"},
        {"serving.pause_overlap_share", "share"},
        {"core.assert_dead", "count/req"},
        {"core.assert_unshared", "count/req"},
        {"core.regions", "count/req"},
        {"core.region_objects_logged", "count/req"},
        {"core.owners_scanned", "count"},
        {"core.ownees_checked", "count"},
        {"core.assertion_pass_s", "s"},
        {"core.violations", "count"},
        {"gc.ownership_s", "s"},
        {"gc.mark_s", "s"},
        {"gc.objects_visited", "count"},
        {"gc.sweep_s", "s"},
        {"gc.sweep_pool_share", "share"},
        {"gc.steals", "count"},
        {"gc.mark_slices", "count"},
        {"gc.satb_logged_slots", "count"},
        {"gc.cycles", "count"},
        {"gc.pause_mean_us", "us"},
        {"gc.pause_max_ms", "ms"},
        {"gc.final_collect_ms", "ms"},
        {"gc.unaccounted_share", "share"},
        {"heap.bytes_allocated", "B"},
        {"heap.objects_allocated", "count"},
        {"heap.bytes_per_cycle", "B"},
        {"heap.live_bytes_end", "B"},
        {"runtime.park_s", "s"},
        {"runtime.stw_s", "s"},
        {"workloads.mutator_s", "s"},
        {"trace.overhead_wall_share", "share"},
        {"trace.overhead_throughput_share", "share"},
        {"trace.dropped_events", "count"},
    };
    for (const std::string &P : suitePrograms())
      D.push_back({"suite." + P + ".wall_ms", "ms"});
    return D;
  }();
  return Defs;
}

namespace {

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

/// Median of \p Key over \p Rounds (0 when no round has it).
double medianOf(const std::vector<Sample> &Rounds, const std::string &Key) {
  std::vector<double> Values;
  for (const Sample &S : Rounds)
    if (auto It = S.find(Key); It != S.end())
      Values.push_back(It->second);
  return median(std::move(Values));
}

} // namespace

std::vector<double> percentiles(std::vector<double> Values,
                                std::initializer_list<double> Ps) {
  std::vector<double> Out;
  std::sort(Values.begin(), Values.end());
  for (double P : Ps) {
    size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Values.size()));
    Out.push_back(Values.empty()
                      ? 0
                      : Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1]);
  }
  return Out;
}

void addCounters(Sample &S, const GcStats &G0, const GcStats &G1,
                 const HeapStats &H0, const HeapStats &H1,
                 const EngineCounters &E0, const EngineCounters &E1) {
  auto Sec = [](uint64_t Nanos) { return static_cast<double>(Nanos) / 1e9; };
  auto Count = [](uint64_t N) { return static_cast<double>(N); };
  S["gc_s"] += Sec(G1.TotalGcNanos - G0.TotalGcNanos);
  S["gc.ownership_s"] += Sec(G1.OwnershipNanos - G0.OwnershipNanos);
  S["gc.mark_s"] += Sec(G1.MarkNanos - G0.MarkNanos);
  S["gc.sweep_s"] += Sec(G1.SweepNanos - G0.SweepNanos);
  S["gc.objects_visited"] += Count(G1.ObjectsVisited - G0.ObjectsVisited);
  S["gc.steals"] += Count(G1.Steals - G0.Steals);
  S["gc.mark_slices"] += Count(G1.MarkSlices - G0.MarkSlices);
  S["gc.satb_logged_slots"] += Count(G1.SatbLoggedSlots - G0.SatbLoggedSlots);
  S["gc.cycles"] += Count(G1.Cycles - G0.Cycles);
  // An incremental cycle pauses at its snapshot, at every slice and at its
  // end; an atomic cycle pauses once.
  S["gc.pauses"] += Count((G1.Cycles - G0.Cycles) +
                          (G1.IncrementalCycles - G0.IncrementalCycles) +
                          (G1.MarkSlices - G0.MarkSlices));
  S["heap.bytes_allocated"] += Count(H1.BytesAllocated - H0.BytesAllocated);
  S["heap.objects_allocated"] +=
      Count(H1.ObjectsAllocated - H0.ObjectsAllocated);
  S["core.assert_dead"] += Count(E1.AssertDeadCalls - E0.AssertDeadCalls);
  S["core.assert_unshared"] +=
      Count(E1.AssertUnsharedCalls - E0.AssertUnsharedCalls);
  S["core.regions"] += Count(E1.RegionsOpened - E0.RegionsOpened);
  S["core.region_objects_logged"] +=
      Count(E1.RegionObjectsLogged - E0.RegionObjectsLogged);
  S["core.owners_scanned"] +=
      Count(E1.OwnersScannedTotal - E0.OwnersScannedTotal);
  S["core.ownees_checked"] +=
      Count(E1.OwneesCheckedTotal - E0.OwneesCheckedTotal);
}

void addDerived(Sample &S, double Ops) {
  for (const char *Key :
       {"core.assert_dead", "core.assert_unshared", "core.regions",
        "core.region_objects_logged", "serving.pause_overlap_share"})
    if (auto It = S.find(Key); It != S.end())
      It->second /= Ops;
  auto Ratio = [](double N, double D) { return D ? N / D : 0; };
  S["throughput_rps"] = Ratio(Ops, S["wall_s"]);
  S["workloads.mutator_s"] = S["wall_s"] - S["gc_s"];
  S["gc.pause_mean_us"] = Ratio(S["gc_s"] * 1e6, S["gc.pauses"]);
  S["heap.bytes_per_cycle"] = Ratio(S["heap.bytes_allocated"], S["gc.cycles"]);
  S["gc.unaccounted_share"] =
      S["gc_s"] ? 1 - Ratio(S["gc.mark_s"] + S["gc.sweep_s"] +
                                S["gc.ownership_s"],
                            S["gc_s"])
                : 0;
  if (S.count("trace.sweep_s"))
    S["gc.sweep_pool_share"] = Ratio(S["trace.sweep_pool_s"], S["trace.sweep_s"]);
}

namespace {

struct ProbeNode {
  ProbeNode *Left = nullptr;
  ProbeNode *Right = nullptr;
  uint64_t Mark = 0;
  uint64_t Payload = 0;
};

/// The probe's working set, about 8.5 MiB, allocated and touched once.
struct ProbeState {
  std::vector<int64_t> Even = std::vector<int64_t>(32768, 3); // 256 KiB
  std::vector<int64_t> Odd = std::vector<int64_t>(32768, 5);
  std::vector<ProbeNode> Graph = std::vector<ProbeNode>(1u << 18); // 8 MiB
  std::vector<ProbeNode *> Stack;
  uint64_t Epoch = 0;
};

/// Resident set size of this process now, MiB.
double currentRssMib() {
  long Pages = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double ProbeFootprintMib = 0;
/// Keeps the probe's results observable so its loops are not elided.
volatile uint64_t ProbeSink;

ProbeState &probeState() {
  static ProbeState *State = [] {
    double Before = currentRssMib();
    auto *S = new ProbeState;
    ProbeFootprintMib = currentRssMib() - Before;
    return S;
  }();
  return *State;
}

} // namespace

double probeHost() {
  ProbeState &P = probeState();
  uint64_t Start = monotonicNanos();
  // A stencil between two arrays that fit in L2: bound by the core.
  for (int Pass = 0; Pass != 160; ++Pass) {
    const int64_t *In = (Pass % 2 ? P.Odd : P.Even).data();
    int64_t *Out = (Pass % 2 ? P.Even : P.Odd).data();
    for (size_t I = 1; I + 1 < P.Even.size(); ++I)
      Out[I] = (In[I - 1] + 2 * In[I] + In[I + 1]) >> 2;
  }
  // Initialise a graph in place, as an allocator hands out fresh objects
  // (each node points at a random older one and at one of its two
  // predecessors); mark it from the newest node; sweep.
  uint64_t State = 99;
  for (size_t I = 0; I != P.Graph.size(); ++I) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    ProbeNode &N = P.Graph[I];
    N.Left = I ? &P.Graph[(State >> 33) % I] : nullptr;
    N.Right = I > 1 ? &P.Graph[I - 1 - ((State >> 13) & 1)] : nullptr;
    N.Payload = State;
  }
  ++P.Epoch;
  P.Stack.assign(1, &P.Graph.back());
  while (!P.Stack.empty()) {
    ProbeNode *N = P.Stack.back();
    P.Stack.pop_back();
    if (!N || N->Mark == P.Epoch)
      continue;
    N->Mark = P.Epoch;
    P.Stack.push_back(N->Left);
    P.Stack.push_back(N->Right);
  }
  uint64_t Live = 0;
  for (const ProbeNode &N : P.Graph)
    Live += N.Mark == P.Epoch;
  uint64_t End = monotonicNanos();
  ProbeSink = static_cast<uint64_t>(P.Even[7]) + Live;
  return static_cast<double>(End - Start) / 1e9;
}

void scaleToReferenceHost(Sample &S, std::vector<double> ProbeSecs,
                          double Ops) {
  double Probe = median(std::move(ProbeSecs));
  double Scale = Probe > 0 ? ProbeReferenceSec / Probe : 1;
  S["host.raw_wall_s"] = S["wall_s"];
  S["host.scale"] = Scale;
  for (const char *Key : {"setup_s", "wall_s", "gc_s", "latency_p50_us",
                          "latency_p99_us", "latency_p999_us"})
    if (auto It = S.find(Key); It != S.end())
      It->second *= Scale;
  S["throughput_rps"] = S["wall_s"] ? Ops / S["wall_s"] : 0;
}

void RunResult::setMedians(const std::vector<Sample> &Rounds) {
  std::map<std::string, uint64_t> Counts;
  for (const Sample &S : Rounds)
    for (const auto &[Key, V] : S)
      ++Counts[Key];
  for (const auto &[Key, N] : Counts)
    set(Key, medianOf(Rounds, Key), N);
}

void RunResult::setTraced(const std::vector<Sample> &Traced,
                          const std::vector<Sample> &Untraced) {
  setMedians(Traced);
  double Wall = medianOf(Untraced, "wall_s");
  double Rps = medianOf(Untraced, "throughput_rps");
  set("trace.overhead_wall_share",
      Wall ? medianOf(Traced, "wall_s") / Wall - 1 : 0, Traced.size());
  set("trace.overhead_throughput_share",
      Rps ? 1 - medianOf(Traced, "throughput_rps") / Rps : 0, Traced.size());
}

double peakRssMib() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  // ru_maxrss is in KiB. The probe's buffers stay resident from its first
  // run on, so they add their footprint to the peak.
  return static_cast<double>(Usage.ru_maxrss) / 1024.0 - ProbeFootprintMib;
}

void Intervals::seal() {
  std::sort(Raw.begin(), Raw.end());
  std::vector<std::pair<uint64_t, uint64_t>> Merged;
  for (const auto &I : Raw) {
    if (!Merged.empty() && I.first <= Merged.back().second)
      Merged.back().second = std::max(Merged.back().second, I.second);
    else
      Merged.push_back(I);
  }
  Raw = std::move(Merged);
}

uint64_t Intervals::covered(uint64_t Start, uint64_t End) const {
  // First merged interval that ends after Start.
  auto It = std::upper_bound(
      Raw.begin(), Raw.end(), Start,
      [](uint64_t S, const std::pair<uint64_t, uint64_t> &I) {
        return S < I.second;
      });
  uint64_t Total = 0;
  for (; It != Raw.end() && It->first < End; ++It)
    Total += std::min(End, It->second) - std::max(Start, It->first);
  return Total;
}

namespace {

/// The JSON value after \p Key in \p Line, or null.
const char *field(const char *Line, const char *Key) {
  const char *P = std::strstr(Line, Key);
  return P ? P + std::strlen(Key) : nullptr;
}

} // namespace

TelemetryWindow TelemetryWindow::drain() {
  TelemetryWindow W;
  StringOStream Out;
  telemetry::writeChromeTrace(Out);
  W.Dropped = telemetry::totalDropped();
  telemetry::clearAllRings();

  // The exporter writes one event per line:
  //   {"name":"mark","cat":"gc","ph":"B","ts":12.345,"pid":1,"tid":3,...
  // Begin/end pairs nest per thread and name.
  std::map<std::pair<unsigned, std::string>, std::vector<uint64_t>> Open;
  const std::string &Text = Out.str();
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    const char *Name = field(Line.c_str(), "{\"name\":\"");
    const char *Ph = field(Line.c_str(), "\"ph\":\"");
    const char *Ts = field(Line.c_str(), "\"ts\":");
    const char *Tid = field(Line.c_str(), "\"tid\":");
    const char *Arg = field(Line.c_str(), "\"arg\":");
    if (!Name || !Ph || !Ts || !Tid)
      continue;
    std::string N(Name, std::strcspn(Name, "\""));
    char *Frac = nullptr;
    uint64_t Nanos = std::strtoull(Ts, &Frac, 10) * 1000;
    if (*Frac == '.')
      Nanos += std::strtoull(Frac + 1, nullptr, 10);
    unsigned T = static_cast<unsigned>(std::strtoul(Tid, nullptr, 10));
    if (*Ph == 'i') {
      if (N == "perfbench.thread" && Arg)
        W.ThreadTids[std::strtoull(Arg, nullptr, 10)] = T;
    } else if (*Ph == 'B') {
      Open[{T, N}].push_back(Nanos);
    } else if (*Ph == 'E') {
      // An end without its begin (a cycle begun on another thread, or a
      // begin lost to ring wraparound) carries no duration: skip it.
      std::vector<uint64_t> &Stack = Open[{T, N}];
      if (Stack.empty())
        continue;
      W.Spans.push_back({N, Stack.back(), Nanos, T});
      Stack.pop_back();
    }
  }
  return W;
}

double TelemetryWindow::seconds(const std::string &Name) const {
  uint64_t Total = 0;
  for (const TelemetrySpan &S : Spans)
    if (S.Name == Name)
      Total += S.End - S.Start;
  return static_cast<double>(Total) / 1e9;
}

void TelemetryWindow::addTo(Sample &S) const {
  double Sweep = seconds("sweep");
  S["core.assertion_pass_s"] += seconds("assertion_pass");
  S["runtime.park_s"] += seconds("safepoint_park");
  S["runtime.stw_s"] += seconds("safepoint_stw");
  S["trace.sweep_s"] += Sweep;
  S["trace.sweep_pool_s"] += workerShare("sweep", "sweep_worker") * Sweep;
  S["trace.dropped_events"] += static_cast<double>(Dropped);
}

Intervals TelemetryWindow::stoppedIntervals(unsigned Tid) const {
  Intervals Out;
  for (const TelemetrySpan &S : Spans)
    if (S.Tid == Tid &&
        (S.Name == "safepoint_stw" || S.Name == "safepoint_park"))
      Out.add(S.Start, S.End);
  Out.seal();
  return Out;
}

double TelemetryWindow::workerShare(const std::string &Phase,
                                    const std::string &Worker) const {
  Intervals Workers;
  for (const TelemetrySpan &S : Spans)
    if (S.Name == Worker)
      Workers.add(S.Start, S.End);
  Workers.seal();
  uint64_t PhaseTotal = 0, Covered = 0;
  for (const TelemetrySpan &S : Spans) {
    if (S.Name != Phase)
      continue;
    PhaseTotal += S.End - S.Start;
    Covered += Workers.covered(S.Start, S.End);
  }
  return PhaseTotal ? static_cast<double>(Covered) /
                          static_cast<double>(PhaseTotal)
                    : 0;
}

void markBenchThread(uint64_t Id) {
  telemetry::instant(telemetry::EventKind::Request, Id, "perfbench.thread");
}

void selfTimesUs(const std::vector<Span> &Spans, const Intervals &Stopped,
                 std::vector<double> &Out) {
  for (const Span &S : Spans)
    Out.push_back(
        static_cast<double>(S.End - S.Start - Stopped.covered(S.Start, S.End)) /
        1e3);
}

bool writeSpans(const std::string &Path,
                const std::vector<std::vector<Span>> &Own, const char *OwnName,
                const TelemetryWindow &Telemetry) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  bool First = true;
  auto Emit = [&](const char *Name, uint64_t Start, uint64_t End,
                  unsigned Tid, uint64_t Id, bool HasId) {
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%u",
                 First ? "" : ",\n", Name, static_cast<double>(Start) / 1e3,
                 static_cast<double>(End - Start) / 1e3, Tid);
    if (HasId)
      std::fprintf(F, ",\"args\":{\"id\":%llu}",
                   static_cast<unsigned long long>(Id));
    std::fprintf(F, "}");
    First = false;
  };
  std::map<unsigned, const std::vector<Span> *> LaneOfTid;
  for (size_t Lane = 0; Lane != Own.size(); ++Lane) {
    auto It = Telemetry.ThreadTids.find(Lane);
    unsigned Tid = It != Telemetry.ThreadTids.end()
                       ? It->second
                       : 10000 + static_cast<unsigned>(Lane);
    LaneOfTid[Tid] = &Own[Lane];
    for (const Span &S : Own[Lane])
      Emit(OwnName, S.Start, S.End, Tid, S.Id, true);
  }
  // A telemetry span that starts inside one of the benchmark's spans on the
  // same thread belongs to that request and carries its id.
  for (const TelemetrySpan &S : Telemetry.Spans) {
    const Span *Parent = nullptr;
    if (auto It = LaneOfTid.find(S.Tid); It != LaneOfTid.end()) {
      const std::vector<Span> &Lane = *It->second;
      auto After = std::upper_bound(
          Lane.begin(), Lane.end(), S.Start,
          [](uint64_t T, const Span &O) { return T < O.Start; });
      if (After != Lane.begin() && S.Start < std::prev(After)->End)
        Parent = &*std::prev(After);
    }
    Emit(S.Name.c_str(), S.Start, S.End, S.Tid, Parent ? Parent->Id : 0,
         Parent != nullptr);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
