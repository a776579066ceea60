//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the gcassert project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: options, the metric tables, the run
/// result, order statistics, the host-speed probe, the benchmark's own
/// spans, and the reader for the program's telemetry rings. Everything here observes the program
/// from outside, through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "gcassert/core/AssertionEngine.h"
#include "gcassert/gc/Collector.h"
#include "gcassert/heap/Heap.h"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// File with the pinned per-program violation counts of the suite.
  std::string ExpectedPath;
  /// When set, the last traced round's spans are written here as a Chrome
  /// trace (the benchmark's own spans plus the program's telemetry).
  std::string SpansOut;
};

/// Name and unit of one reported metric.
struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// The end-to-end metrics, in report order.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics, in report order (suite programs included).
const std::vector<MetricDef> &perLayerMetrics();
/// The 19 timed suite programs (the paper's DaCapo 2006 + SPECjvm98 +
/// pseudojbb stand-ins), in the order of the program's bench list.
const std::vector<std::string> &suitePrograms();

/// Metric values of one measured round, by name.
using Sample = std::map<std::string, double>;

/// A value with the number of samples behind it.
struct Value {
  double V = 0;
  uint64_t Samples = 0;
};

/// What one run of the benchmark reports.
struct RunResult {
  std::map<std::string, Value> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Human-readable description of every failed check.
  std::vector<std::string> Failures;

  void set(const std::string &Name, double V, uint64_t Samples) {
    Metrics[Name] = Value{V, Samples};
  }
  void fail(uint64_t Ops, const std::string &Why) {
    Failed += Ops;
    Failures.push_back(Why);
  }
  /// Sets every metric present in any of \p Rounds to its median.
  void setMedians(const std::vector<Sample> &Rounds);
  /// For a traced run: the medians of the \p Traced rounds, plus the
  /// tracing overhead on wall_s and throughput_rps against the \p Untraced
  /// rounds interleaved with them.
  void setTraced(const std::vector<Sample> &Traced,
                 const std::vector<Sample> &Untraced);
};

/// Nearest-rank percentiles \p Ps, each in (0, 100], of \p Values, in the
/// order asked (all 0 when \p Values is empty).
std::vector<double> percentiles(std::vector<double> Values,
                                std::initializer_list<double> Ps);

/// Adds to \p S what the program's own counters say about one measured
/// window, as deltas between snapshots taken before (0) and after (1) it:
/// GC time, phases, work and pauses; heap allocation; assertion-engine
/// registrations and ownership work. Per-request counts stay totals here;
/// addDerived() divides them.
void addCounters(Sample &S, const gcassert::GcStats &G0,
                 const gcassert::GcStats &G1, const gcassert::HeapStats &H0,
                 const gcassert::HeapStats &H1,
                 const gcassert::EngineCounters &E0,
                 const gcassert::EngineCounters &E1);

/// Completes \p S, which holds the sums for a window of \p Ops requests
/// (or iterations): the per-request metrics, throughput, mutator time, mean
/// pause, bytes per cycle, the unaccounted GC share and the pool's share
/// of the sweep.
void addDerived(Sample &S, double Ops);

/// Peak resident set size of this process, MiB, less the host probe's
/// resident buffers (probeHost()).
double peakRssMib();

/// Host-speed scaling of the end-to-end times.
///
/// The benchmark runs on vCPUs of a shared host whose other tenants drift
/// its speed: the same suite pass ran 1.5x slower for minutes at a time,
/// in user time, with no page faults or preemption to show for it. No
/// statistic over one run removes a slowdown that lasts the whole run, so
/// every round also runs probeHost(), a fixed kernel that uses none of the
/// program's code: a stencil over two L2-sized arrays, then the allocation,
/// mark and sweep of an 8 MiB object graph. A round's end-to-end times are
/// then scaled by ProbeReferenceSec over the median probe time of that
/// round: they read as seconds on a host on which the probe takes
/// ProbeReferenceSec. README.md gives the measurements behind the kernel.
constexpr double ProbeReferenceSec = 0.008;

/// Runs the probe kernel once; its duration, seconds.
double probeHost();

/// Scales the end-to-end times of \p S (setup_s, wall_s, gc_s and the
/// latency percentiles) to the reference host, by the median of the probe
/// times \p ProbeSecs measured during the round, and recomputes
/// throughput_rps over its \p Ops. Keeps the raw wall_s as
/// host.raw_wall_s and the scale as host.scale. Call after addDerived(),
/// which derives the per-layer metrics from the raw times.
void scaleToReferenceHost(Sample &S, std::vector<double> ProbeSecs,
                          double Ops);

/// One of the benchmark's own spans: a call into the program.
struct Span {
  uint64_t Start = 0;
  uint64_t End = 0;
  /// Request index (KV) or iteration number (suite); the telemetry spans
  /// nested in this one on the same thread are attributed to it.
  uint64_t Id = 0;
};

/// Half-open time intervals, merged and sorted, answering "how much of
/// [Start, End) do they cover".
class Intervals {
public:
  void add(uint64_t Start, uint64_t End) { Raw.push_back({Start, End}); }
  /// Sorts and merges; call once after the last add().
  void seal();
  uint64_t covered(uint64_t Start, uint64_t End) const;

private:
  std::vector<std::pair<uint64_t, uint64_t>> Raw;
};

/// A begin/end pair read back from the program's telemetry rings.
struct TelemetrySpan {
  std::string Name;
  uint64_t Start = 0;
  uint64_t End = 0;
  unsigned Tid = 0;
};

/// The program's telemetry for one measured window: every span paired from
/// the rings, plus the ring thread ids of the benchmark's own threads.
struct TelemetryWindow {
  std::vector<TelemetrySpan> Spans;
  /// Ring thread id of each benchmark thread, by the argument of its
  /// "perfbench.thread" instant.
  std::map<uint64_t, unsigned> ThreadTids;
  uint64_t Dropped = 0;

  /// Reads and then clears every ring. Call with no mutator running.
  static TelemetryWindow drain();

  /// Summed duration of spans named \p Name, seconds.
  double seconds(const std::string &Name) const;

  /// Adds the window's per-layer sums to \p S: assertion-pass, park and
  /// stop-the-world time, the sweep time the GC pool covered, and events
  /// lost to ring wraparound.
  void addTo(Sample &S) const;

  /// The safepoint stop/park intervals of ring thread \p Tid: the time
  /// that thread spent stopped for (or running) a collection.
  Intervals stoppedIntervals(unsigned Tid) const;

  /// Share of the \p Phase spans' time during which any \p Worker span was
  /// running (the pool's share of a phase).
  double workerShare(const std::string &Phase,
                     const std::string &Worker) const;
};

/// Marks the calling thread in the telemetry rings so its ring thread id
/// can be matched with the benchmark's own spans (see ThreadTids).
void markBenchThread(uint64_t Id);

/// Self-time of \p Spans after removing what \p Stopped covers, in
/// microseconds, appended to \p Out.
void selfTimesUs(const std::vector<Span> &Spans, const Intervals &Stopped,
                 std::vector<double> &Out);

/// Writes \p Own (one lane per benchmark thread) and \p Telemetry as a
/// Chrome trace. Returns false if the file cannot be written.
bool writeSpans(const std::string &Path,
                const std::vector<std::vector<Span>> &Own,
                const char *OwnName, const TelemetryWindow &Telemetry);

RunResult runSuite(const Options &Opts);
RunResult runKv(const Options &Opts, bool Incremental);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
