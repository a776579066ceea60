//===- perfbench/src/Kv.cpp - The KV serving workloads --------------------===//
//
// Part of the gcassert project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `kv` and `kv-inc`: KvService with the default KvConfig on a 4 MiB heap,
/// WithAssertions, driven by the benchmark's own closed-loop clients.
///
///   kv      4 clients, stop-the-world MarkSweep, 1 GC thread, TLABs on.
///   kv-inc  1 client, incremental SATB marking (trigger at 0.5 occupancy,
///           default mark budget), Hardening::Check (shared free list).
///
/// A round builds a fresh Vm and service, serves a fixed warm-up and then a
/// fixed measured run of requests from the seed, and finishes with a
/// collection that runs every pending assertion. Client c of C serves the
/// requests whose index is c mod C, in order; C divides the shard count, so
/// every shard sees its requests in index order and the final state digest
/// depends only on the seed and request count. Every round's digest must
/// equal that of one run of the other KV configuration on the same
/// requests, and every round must report zero violations. The host probe
/// runs twice before and twice after each round; the round's end-to-end
/// times are scaled by their median (Bench.h).
///
/// BENCHMARK.json measures kv-inc only: on a 4-vCPU shared host, kv's
/// throughput and tail swing by a third from run to run (README.md). kv
/// stays runnable by name and serves as kv-inc's reference run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "gcassert/core/AssertionEngine.h"
#include "gcassert/core/Violation.h"
#include "gcassert/serving/KvService.h"
#include "gcassert/support/ErrorHandling.h"
#include "gcassert/support/Format.h"
#include "gcassert/support/OStream.h"
#include "gcassert/support/Timer.h"
#include "gcassert/telemetry/TraceEvents.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <pthread.h>
#include <sched.h>

using namespace gcassert;
using namespace gcassert::serving;

namespace perfbench {

namespace {

constexpr size_t HeapBytes = 4u << 20;
constexpr uint64_t WarmupRequests = 1u << 15;
/// Measured requests per round; a multiple of the shard count, and small
/// enough that a traced round's telemetry fits the program's per-thread
/// rings (RingCapacity events) without wrapping.
constexpr uint64_t RoundRequests = 1u << 16;
/// Rounds a run makes at least, however short --seconds is.
constexpr int MinRounds = 3;
/// Host probes run before and again after each measured round.
constexpr int ProbesPerSide = 2;

struct KvSetup {
  const char *Name;
  unsigned Clients;
  bool Incremental;
};

constexpr KvSetup StwSetup{"kv", 4, false};
constexpr KvSetup IncSetup{"kv-inc", 1, true};

/// Pins the calling client to the \p Index-th CPU this process may use
/// (round-robin). Unpinned, the scheduler sometimes stacks the clients on
/// fewer CPUs, where they take turns instead of contending, and throughput
/// flips between two modes from one run to the next.
void pinToCpu(unsigned Index) {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  std::vector<int> Cpus;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed))
      Cpus.push_back(Cpu);
  if (Cpus.empty())
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Index % Cpus.size()], &One);
  pthread_setaffinity_np(pthread_self(), sizeof(One), &One);
}

/// What one client records over a measured window.
struct ClientLog {
  std::vector<double> LatencyUs;
  std::vector<Span> Requests; ///< Traced only.
  uint64_t PauseOverlaps = 0; ///< Traced only.
};

/// Serves requests [First, Last) on \p Logs.size() closed-loop clients and
/// returns the window's wall time in nanoseconds: from the moment every
/// client is running and released until the last one finishes.
uint64_t serve(Vm &V, WorkloadContext &Ctx, KvService &Kv, uint64_t First,
               uint64_t Last, std::vector<ClientLog> &Logs, bool Traced) {
  unsigned Clients = static_cast<unsigned>(Logs.size());
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<MutatorHandle> Workers;
  for (unsigned C = 0; C != Clients; ++C) {
    ClientLog &Log = Logs[C];
    Log.LatencyUs.reserve((Last - First) / Clients + 1);
    if (Traced)
      Log.Requests.reserve((Last - First) / Clients + 1);
    Workers.push_back(V.startMutator(
        format("client-%u", C), [&, C](Vm &, MutatorThread &Me) {
          pinToCpu(C);
          if (Traced)
            markBenchThread(C);
          Ready.fetch_add(1, std::memory_order_release);
          while (!Go.load(std::memory_order_acquire)) {
            V.safepointPoll();
            SafepointSafeScope Safe(V.safepoints());
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          for (uint64_t I = First + C; I < Last; I += Clients) {
            uint64_t Epoch = Traced ? V.safepoints().epoch() : 0;
            uint64_t Begin = monotonicNanos();
            Kv.execute(Ctx, Me, I);
            uint64_t End = monotonicNanos();
            Log.LatencyUs.push_back(static_cast<double>(End - Begin) / 1e3);
            if (Traced) {
              Log.Requests.push_back({Begin, End, I});
              if (V.safepoints().epoch() != Epoch)
                ++Log.PauseOverlaps;
            }
          }
        }));
  }
  // Release the clients together once every one is at the start line. No
  // client allocates before the release, so no collection can need this
  // thread meanwhile.
  while (Ready.load(std::memory_order_acquire) != Clients)
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  uint64_t Start = monotonicNanos();
  Go.store(true, std::memory_order_release);
  for (MutatorHandle &W : Workers)
    W.join();
  return monotonicNanos() - Start;
}

struct Round {
  Sample S;
  uint64_t Digest = 0;
  uint64_t Violations = 0;
  std::string FirstViolation;
  std::vector<std::vector<Span>> Requests; ///< Traced only.
  TelemetryWindow Window;                  ///< Traced only.
};

double nanosToSec(uint64_t N) { return static_cast<double>(N) / 1e9; }


Round runRound(const KvSetup &Setup, uint64_t Seed, bool Traced) {
  Round R;
  Sample &S = R.S;
  uint64_t SetupStart = monotonicNanos();
  VmConfig Config;
  Config.HeapBytes = HeapBytes;
  Config.Collector = CollectorKind::MarkSweep;
  Config.Gc.Threads = 1;
  if (Setup.Incremental) {
    Config.Gc.Incremental = true;
    Config.Gc.IncrementalTriggerOccupancy = 0.5;
    Config.Gc.Hardening = HardeningMode::Check;
  }
  Vm V(Config);
  RecordingViolationSink Sink;
  AssertionEngine Engine(V, &Sink);
  WorkloadContext Ctx(V, &Engine, /*UseAssertions=*/true, Seed);
  KvService Kv(Ctx, KvConfig(), Seed);
  {
    std::vector<ClientLog> Warmup(Setup.Clients);
    serve(V, Ctx, Kv, 0, WarmupRequests, Warmup, false);
  }
  // Start the window from a collected heap: exact heap statistics (TLAB
  // accounting settles at a pause) and no warm-up garbage.
  V.collectNow("perfbench-warmup");
  S["setup_s"] = nanosToSec(monotonicNanos() - SetupStart);

  if (Traced) {
    TelemetryWindow::drain(); // Drop set-up events.
    telemetry::setTracingEnabled(true);
  }
  GcStats G0 = V.gcStats();
  HeapStats H0 = V.heap().stats();
  EngineCounters E0 = Engine.counters();
  std::vector<ClientLog> Logs(Setup.Clients);
  uint64_t WallNanos = serve(V, Ctx, Kv, WarmupRequests,
                             WarmupRequests + RoundRequests, Logs, Traced);
  GcStats G1 = V.gcStats();
  EngineCounters E1 = Engine.counters();
  if (Traced) {
    telemetry::setTracingEnabled(false);
    R.Window = TelemetryWindow::drain();
  }

  // The final collection runs every still-pending assertion (an eviction
  // whose victim never saw another cycle is caught here). It also settles
  // the TLAB accounting, so the heap statistics are read after it.
  uint64_t FinalStart = monotonicNanos();
  V.collectNow("perfbench-final");
  S["gc.final_collect_ms"] =
      static_cast<double>(monotonicNanos() - FinalStart) / 1e6;
  addCounters(S, G0, G1, H0, V.heap().stats(), E0, E1);
  R.Digest = Kv.digest();
  R.Violations = Sink.violations().size();
  if (R.Violations) {
    StringOStream Text;
    printViolation(Text, Sink.violations().front());
    R.FirstViolation = Text.str();
  }
  S["wall_s"] = nanosToSec(WallNanos);
  S["core.violations"] = static_cast<double>(R.Violations);
  S["gc.pause_max_ms"] = static_cast<double>(G1.MaxPauseNanos) / 1e6;
  S["heap.live_bytes_end"] =
      static_cast<double>(V.heap().liveBytesAfterLastGc());

  std::vector<double> LatencyUs;
  for (ClientLog &Log : Logs)
    LatencyUs.insert(LatencyUs.end(), Log.LatencyUs.begin(),
                     Log.LatencyUs.end());
  std::vector<double> P = percentiles(std::move(LatencyUs), {50, 99, 99.9});
  S["latency_p50_us"] = P[0];
  S["latency_p99_us"] = P[1];
  S["latency_p999_us"] = P[2];
  if (Traced) {
    std::vector<double> SelfUs;
    uint64_t Overlaps = 0;
    for (unsigned C = 0; C != Setup.Clients; ++C) {
      auto Tid = R.Window.ThreadTids.find(C);
      Intervals Stopped = Tid != R.Window.ThreadTids.end()
                              ? R.Window.stoppedIntervals(Tid->second)
                              : Intervals();
      selfTimesUs(Logs[C].Requests, Stopped, SelfUs);
      Overlaps += Logs[C].PauseOverlaps;
      R.Requests.push_back(std::move(Logs[C].Requests));
    }
    std::vector<double> Service = percentiles(std::move(SelfUs), {50, 99});
    S["serving.service_us.p50"] = Service[0];
    S["serving.service_us.p99"] = Service[1];
    S["serving.pause_overlap_share"] = static_cast<double>(Overlaps);
    R.Window.addTo(S);
  }
  addDerived(S, static_cast<double>(RoundRequests));
  return R;
}

} // namespace

RunResult runKv(const Options &Opts, bool Incremental) {
  const KvSetup &Setup = Incremental ? IncSetup : StwSetup;
  const KvSetup &Twin = Incremental ? StwSetup : IncSetup;
  RunResult Result;
  // The host probe runs on this thread. Pinned with client 0, it times the
  // vCPU that serves the measured requests (all of them on kv-inc); this
  // thread only blocks while the clients run.
  pinToCpu(0);

  // The other configuration serves the same requests once, before the
  // measured rounds; partition-owned routing makes the final state
  // independent of client count and collector mode, so every round's
  // digest must equal this one. Its requests are checked work too: a
  // violation fails them (and leaves the digest valid).
  Round Reference = runRound(Twin, Opts.Seed, false);
  Result.Attempted += RoundRequests;
  if (Reference.Violations != 0)
    Result.fail(RoundRequests,
                format("%s reference run: %llu violations, expected none; "
                       "first:\n%s",
                       Twin.Name,
                       static_cast<unsigned long long>(Reference.Violations),
                       Reference.FirstViolation.c_str()));

  std::vector<Sample> Rounds, Traced, Untraced;
  Round LastTraced;
  uint64_t RunStart = monotonicNanos();
  for (int I = 0;; ++I) {
    if (I >= MinRounds && nanosToSec(monotonicNanos() - RunStart) >= Opts.Seconds)
      break;
    // A traced run alternates untraced and traced rounds so the tracing
    // overhead is measured pairwise, in one process.
    bool IsTraced = Opts.Trace && I % 2 == 1;
    std::vector<double> ProbeSecs;
    for (int P = 0; P != ProbesPerSide; ++P)
      ProbeSecs.push_back(probeHost());
    Round R = runRound(Setup, Opts.Seed, IsTraced);
    for (int P = 0; P != ProbesPerSide; ++P)
      ProbeSecs.push_back(probeHost());
    scaleToReferenceHost(R.S, std::move(ProbeSecs),
                         static_cast<double>(RoundRequests));
    Result.Attempted += RoundRequests;
    if (R.Digest != Reference.Digest)
      Result.fail(RoundRequests,
                  format("round %d: state digest %016llx, %s gives %016llx",
                         I, static_cast<unsigned long long>(R.Digest),
                         Twin.Name,
                         static_cast<unsigned long long>(Reference.Digest)));
    else if (R.Violations != 0)
      Result.fail(RoundRequests,
                  format("round %d: %llu violations, expected none; "
                         "first:\n%s",
                         I, static_cast<unsigned long long>(R.Violations),
                         R.FirstViolation.c_str()));
    (IsTraced ? Traced : Untraced).push_back(R.S);
    Rounds.push_back(R.S);
    if (IsTraced)
      LastTraced = std::move(R);
  }

  if (!Opts.Trace) {
    Result.setMedians(Rounds);
    // The latency percentiles are medians of per-round exact percentiles;
    // their sample count is every measured request.
    for (const char *Key :
         {"latency_p50_us", "latency_p99_us", "latency_p999_us"})
      Result.Metrics[Key].Samples = Rounds.size() * RoundRequests;
  } else {
    Result.setTraced(Traced, Untraced);
    if (!Opts.SpansOut.empty() &&
        !writeSpans(Opts.SpansOut, LastTraced.Requests, "execute",
                    LastTraced.Window))
      reportFatalError("cannot write the span file");
  }
  Result.set("rss_peak_mib", peakRssMib(), 1);
  return Result;
}

} // namespace perfbench
