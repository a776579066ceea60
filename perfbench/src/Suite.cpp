//===- perfbench/src/Suite.cpp - The batch suite workload -----------------===//
//
// Part of the gcassert project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `suite`: the paper's own setting. Each pass runs the 19 perf programs one
/// after another, each in a fresh Vm at its own heap size under
/// WithAssertions with path recording, one mutator, stop-the-world
/// MarkSweep and up to 4 GC threads: set-up plus one warm-up iteration,
/// then a fixed number of timed iterations, as the paper's harness does (no
/// final collection). Every program's violation-kind counts must equal the
/// pinned ones. The host probe runs before each program and after the
/// last; a pass's end-to-end times are scaled by their median.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "gcassert/core/AssertionEngine.h"
#include "gcassert/core/Violation.h"
#include "gcassert/support/ErrorHandling.h"
#include "gcassert/support/Format.h"
#include "gcassert/support/Timer.h"
#include "gcassert/telemetry/TraceEvents.h"
#include "gcassert/workloads/Workload.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

using namespace gcassert;

namespace perfbench {

namespace {

constexpr int WarmupIterations = 1;
constexpr int MeasuredIterations = 2;
/// Passes a run makes at least, however short --seconds is.
constexpr int MinPasses = 3;

/// "kind=count" pairs, sorted by kind; empty for a clean program.
using KindCounts = std::map<std::string, uint64_t>;

std::string describe(const KindCounts &Counts) {
  std::string Out;
  for (const auto &[Kind, N] : Counts)
    Out += format("%s%s=%llu", Out.empty() ? "" : " ", Kind.c_str(),
                  static_cast<unsigned long long>(N));
  return Out.empty() ? "none" : Out;
}

/// Reads the pinned counts: one line per program, "<program> none" or
/// "<program> <kind>=<count> ...". '#' starts a comment.
std::map<std::string, KindCounts> readExpected(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    reportFatalError(
        format("cannot read pinned violations '%s'", Path.c_str()).c_str());
  std::map<std::string, KindCounts> Expected;
  std::string Line;
  while (std::getline(In, Line)) {
    Line = Line.substr(0, Line.find('#'));
    std::istringstream Words(Line);
    std::string Program, Pair;
    if (!(Words >> Program))
      continue;
    KindCounts &Counts = Expected[Program];
    while (Words >> Pair) {
      size_t Eq = Pair.find('=');
      if (Pair == "none")
        continue;
      if (Eq == std::string::npos)
        reportFatalError(
            format("malformed pinned entry '%s'", Pair.c_str()).c_str());
      Counts[Pair.substr(0, Eq)] = std::stoull(Pair.substr(Eq + 1));
    }
  }
  for (const std::string &P : suitePrograms())
    if (!Expected.count(P))
      reportFatalError(
          format("no pinned violations for '%s'", P.c_str()).c_str());
  return Expected;
}

/// One program's share of a pass.
struct ProgramRun {
  /// Sums for the pass: setup_s, wall_s and the per-layer totals.
  Sample Layer;
  std::vector<double> IterationUs;
  /// Iteration self-times: the iteration minus its safepoint stops (traced).
  std::vector<double> SelfUs;
  KindCounts Violations;
  /// The measured window's spans (traced).
  std::vector<Span> Iterations;
  TelemetryWindow Window;
};

ProgramRun runProgram(const std::string &Name, const Options &Opts,
                      unsigned GcThreads, bool Traced) {
  ProgramRun R;
  Sample &L = R.Layer;
  uint64_t SetupStart = monotonicNanos();
  std::unique_ptr<Workload> W = WorkloadRegistry::create(Name);
  VmConfig Config;
  Config.HeapBytes = W->heapBytes();
  Config.Collector = CollectorKind::MarkSweep;
  Config.Gc.Threads = GcThreads;
  Vm V(Config);
  RecordingViolationSink Sink;
  AssertionEngine Engine(V, &Sink);
  V.collector().setPathRecording(true);
  WorkloadContext Ctx(V, &Engine, /*UseAssertions=*/true, Opts.Seed);
  W->setUp(Ctx);
  for (int I = 0; I != WarmupIterations; ++I)
    W->runIteration(Ctx);
  L["setup_s"] = static_cast<double>(monotonicNanos() - SetupStart) / 1e9;

  if (Traced) {
    TelemetryWindow::drain(); // Drop set-up and warm-up events.
    telemetry::setTracingEnabled(true);
    markBenchThread(0);
  }
  GcStats G0 = V.gcStats();
  HeapStats H0 = V.heap().stats();
  EngineCounters E0 = Engine.counters();
  uint64_t Start = monotonicNanos();
  uint64_t PauseOverlaps = 0;
  for (int I = 0; I != MeasuredIterations; ++I) {
    uint64_t Epoch = Traced ? V.safepoints().epoch() : 0;
    uint64_t Begin = monotonicNanos();
    W->runIteration(Ctx);
    uint64_t End = monotonicNanos();
    R.Iterations.push_back({Begin, End, static_cast<uint64_t>(I)});
    R.IterationUs.push_back(static_cast<double>(End - Begin) / 1e3);
    if (Traced && V.safepoints().epoch() != Epoch)
      ++PauseOverlaps;
  }
  double WallSec = static_cast<double>(monotonicNanos() - Start) / 1e9;
  addCounters(L, G0, V.gcStats(), H0, V.heap().stats(), E0, Engine.counters());
  if (Traced) {
    telemetry::setTracingEnabled(false);
    R.Window = TelemetryWindow::drain();
  }

  for (const Violation &Viol : Sink.violations())
    ++R.Violations[assertionKindName(Viol.Kind)];
  L["wall_s"] = WallSec;
  L["suite." + Name + ".wall_ms"] = WallSec * 1e3;
  L["core.violations"] = static_cast<double>(Sink.violations().size());
  L["heap.live_bytes_end"] =
      static_cast<double>(V.heap().liveBytesAfterLastGc());
  L["gc.pause_max_ms"] = static_cast<double>(V.gcStats().MaxPauseNanos) / 1e6;

  if (Traced) {
    auto Tid = R.Window.ThreadTids.find(0);
    Intervals Stopped = Tid != R.Window.ThreadTids.end()
                            ? R.Window.stoppedIntervals(Tid->second)
                            : Intervals();
    selfTimesUs(R.Iterations, Stopped, R.SelfUs);
    L["serving.pause_overlap_share"] = static_cast<double>(PauseOverlaps);
    R.Window.addTo(L);
  }

  W->tearDown(Ctx);
  return R;
}

} // namespace

RunResult runSuite(const Options &Opts) {
  registerBuiltinWorkloads();
  std::map<std::string, KindCounts> Expected = readExpected(Opts.ExpectedPath);
  unsigned GcThreads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  const double PassIterations =
      static_cast<double>(suitePrograms().size() * MeasuredIterations);

  RunResult Result;
  std::vector<Sample> Passes, Traced, Untraced;
  ProgramRun LastTraced;
  uint64_t RunStart = monotonicNanos();
  for (int Pass = 0;; ++Pass) {
    double Elapsed = static_cast<double>(monotonicNanos() - RunStart) / 1e9;
    if (Pass >= MinPasses && Elapsed >= Opts.Seconds)
      break;
    // A traced run alternates untraced and traced passes so the tracing
    // overhead is measured pairwise, in one process.
    bool IsTraced = Opts.Trace && Pass % 2 == 1;
    Sample S;
    std::vector<double> IterationUs, SelfUs, ProbeSecs;
    for (const std::string &Name : suitePrograms()) {
      ProbeSecs.push_back(probeHost());
      ProgramRun R = runProgram(Name, Opts, GcThreads, IsTraced);
      for (const auto &[Key, V] : R.Layer)
        S[Key] = Key == "gc.pause_max_ms" ? std::max(S[Key], V) : S[Key] + V;
      IterationUs.insert(IterationUs.end(), R.IterationUs.begin(),
                         R.IterationUs.end());
      SelfUs.insert(SelfUs.end(), R.SelfUs.begin(), R.SelfUs.end());
      Result.Attempted += MeasuredIterations;
      const KindCounts &Want = Expected[Name];
      if (R.Violations != Want)
        Result.fail(MeasuredIterations,
                    format("pass %d: %s violations [%s], pinned [%s]", Pass,
                           Name.c_str(), describe(R.Violations).c_str(),
                           describe(Want).c_str()));
      if (IsTraced)
        LastTraced = std::move(R);
    }
    addDerived(S, PassIterations);
    // Iteration latency percentiles of this pass; the run reports their
    // medians over passes, like the pass totals.
    std::vector<double> P = percentiles(std::move(IterationUs), {50, 99, 99.9});
    S["latency_p50_us"] = P[0];
    S["latency_p99_us"] = P[1];
    S["latency_p999_us"] = P[2];
    ProbeSecs.push_back(probeHost());
    scaleToReferenceHost(S, std::move(ProbeSecs), PassIterations);
    if (IsTraced) {
      std::vector<double> Service = percentiles(std::move(SelfUs), {50, 99});
      S["serving.service_us.p50"] = Service[0];
      S["serving.service_us.p99"] = Service[1];
      Traced.push_back(S);
    } else {
      Untraced.push_back(S);
    }
    Passes.push_back(std::move(S));
  }

  if (!Opts.Trace) {
    Result.setMedians(Passes);
    for (const char *Key :
         {"latency_p50_us", "latency_p99_us", "latency_p999_us"})
      Result.Metrics[Key].Samples =
          static_cast<uint64_t>(Passes.size() * PassIterations);
  } else {
    Result.setTraced(Traced, Untraced);
    if (!Opts.SpansOut.empty() &&
        !writeSpans(Opts.SpansOut, {LastTraced.Iterations}, "runIteration",
                    LastTraced.Window))
      reportFatalError("cannot write the span file");
  }
  Result.set("rss_peak_mib", peakRssMib(), 1);
  return Result;
}

} // namespace perfbench
