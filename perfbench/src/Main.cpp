//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the gcassert project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gcassert-perfbench --workload suite|kv|kv-inc --seed N --seconds S
///                    --trace 0|1 --expected FILE [--spans-out FILE]
///
/// Runs one workload, checks its outputs, and prints one line per metric,
/// a "perfbench-report" JSON line with the run's full context, and as the
/// last line the result object: {"correct", "attempted", "failed",
/// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
/// per-layer ones (from a run that alternates traced and untraced rounds).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "gcassert/support/Format.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace gcassert;
using namespace perfbench;

namespace {

/// The seed later performance claims must also hold on; never used while
/// tuning a change (see README.md).
constexpr uint64_t HeldOutSeed = 20090615;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "gcassert-perfbench: %s\n"
               "usage: gcassert-perfbench --workload suite|kv|kv-inc "
               "--seed N --seconds S --trace 0|1 --expected FILE "
               "[--spans-out FILE]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options Opts;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    const char *Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Val;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Val, &End, 0);
      HaveSeed = *Val && !*End;
      if (!HaveSeed)
        usage("bad --seed");
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Val, &End);
      if (!*Val || *End || !(Opts.Seconds > 0))
        usage("bad --seconds");
    } else if (Arg == "--trace") {
      if (std::strcmp(Val, "0") && std::strcmp(Val, "1"))
        usage("--trace takes 0 or 1");
      Opts.Trace = Val[0] == '1';
    } else if (Arg == "--expected") {
      Opts.ExpectedPath = Val;
    } else if (Arg == "--spans-out") {
      Opts.SpansOut = Val;
    } else {
      usage(("unknown option " + Arg).c_str());
    }
  }
  if (Opts.Workload != "suite" && Opts.Workload != "kv" &&
      Opts.Workload != "kv-inc")
    usage("--workload must be suite, kv or kv-inc");
  if (!HaveSeed)
    usage("--seed is required");
  if (Opts.ExpectedPath.empty())
    usage("--expected is required");
  return Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseArgs(Argc, Argv);
  // Allocates the host probe's buffers before any workload runs, so that
  // they are resident at the workload's peak (peakRssMib() subtracts them).
  probeHost();
  RunResult R = Opts.Workload == "suite" ? runSuite(Opts)
                                         : runKv(Opts, Opts.Workload == "kv-inc");

  const std::vector<MetricDef> &Defs =
      Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  bool Finite = true;
  std::string Metrics, Report;
  for (const MetricDef &D : Defs) {
    // A metric the workload does not exercise reads 0 (no work of that
    // kind was done), never missing.
    Value V = R.Metrics.count(D.Name) ? R.Metrics[D.Name] : Value();
    if (!std::isfinite(V.V)) {
      // JSON has no NaN; the run is marked incorrect below instead.
      Finite = false;
      V.V = 0;
    }
    std::printf("%-34s %16.6f %-9s n=%llu\n", D.Name.c_str(), V.V,
                D.Unit.c_str(), static_cast<unsigned long long>(V.Samples));
    std::string Entry =
        format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
               Metrics.empty() ? "" : ", ", D.Name.c_str(), V.V,
               D.Unit.c_str());
    Metrics += Entry + "}";
    Report += Entry + format(", \"samples\": %llu}",
                             static_cast<unsigned long long>(V.Samples));
  }
  if (!Finite)
    R.Failures.push_back("a metric is not finite (reported as 0)");
  for (const std::string &F : R.Failures)
    std::printf("FAILED CHECK: %s\n", F.c_str());

  bool Correct = R.Failures.empty();
  double FailedShare =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0;
  std::printf("failed_share %.6f (%llu of %llu)\n", FailedShare,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  // The end-to-end times are scaled to the reference host (Bench.h); the
  // scale and the unscaled wall time stay on record here.
  double HostScale = R.Metrics["host.scale"].V;
  double RawWall = R.Metrics["host.raw_wall_s"].V;
  std::printf("host_scale %.6f (raw wall_s %.6f)\n", HostScale, RawWall);
  std::printf("perfbench-report {\"workload\": \"%s\", \"seed\": %llu, "
              "\"held_out_seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"host_cores\": %u, \"build_type\": \"%s\", "
              "\"host_scale\": %.17g, \"raw_wall_s\": %.17g, "
              "\"failed_share\": %.17g, \"metrics\": {%s}}\n",
              Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              static_cast<unsigned long long>(HeldOutSeed), Opts.Seconds,
              Opts.Trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, HostScale, RawWall, FailedShare,
              Report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
