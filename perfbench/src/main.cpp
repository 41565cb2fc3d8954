// Benchmark driver: runs one workload for a fixed wall-clock budget and
// prints its record. The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and calls it.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaign.h"
#include "gpu/device.h"
#include "util/timer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      o.trace = std::atoi(value);
    } else if (key == "--workdir") {
      o.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0 &&
         (o.trace == 0 || o.trace == 1) && !o.workdir.empty();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* unit_of(const std::string& name) {
  if (name.ends_with("_mib")) return "MiB";
  if (name.ends_with("_per_s")) return "1/s";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_frac") || name == "core.rank_imbalance" ||
      name == "util.pool_utilization") {
    return "ratio";
  }
  if (name.ends_with("_gflops")) return "GFLOP/s";
  if (name.ends_with("flops")) return "flop";
  if (name.ends_with("bytes_sent")) return "B";
  return "count";
}

/// Step counts and check failures over every campaign of the run. A
/// campaign's failed check fails its steps; a run-level check (digest
/// contract, record self-check) fails all of them.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool run_failed = false;
  std::vector<std::string> failures;

  void add(const CampaignResult& c, const char* label) {
    attempted += c.steps_attempted;
    failed += c.steps_failed;
    for (const auto& f : c.failures) {
      failures.push_back(std::string(label) + ": " + f);
    }
  }
  void fail_run(const std::string& what) {
    run_failed = true;
    failures.push_back(what);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return 2;
  }
  const auto workload = make_workload(opt.workload, opt.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const bool traced = opt.trace == 1;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host: %u cores, simd %s, build %s\n", cores,
              crkhacc::gpu::simd_support().isa, PERFBENCH_BUILD_TYPE);
  std::printf("workload %s: %d ranks x %d threads, seed %llu, %s\n",
              workload->name.c_str(), workload->ranks, workload->threads,
              static_cast<unsigned long long>(opt.seed),
              traced ? "traced" : "untraced");
  std::fflush(stdout);

  Tally tally;
  const auto options = [&](bool trace, bool replay, int threads = 0) {
    CampaignOptions o;
    o.traced = trace;
    o.replay = replay;
    o.threads = threads;
    o.workdir = opt.workdir + "/" + workload->name + "-" +
                std::to_string(getpid());
    return o;
  };

  // Campaign r runs realization r of the workload: the ICs of the first
  // come from --seed itself, the others from seeds derived from it. One
  // realization of these small boxes varies by tens of percent in work
  // from seed to seed, so a run measures an ensemble of realizations.
  const auto realization = [&](int r) {
    return *make_workload(opt.workload,
                          opt.seed + static_cast<std::uint64_t>(r) *
                                         0x9E3779B97F4A7C15ull);
  };

  // Thread-count contract, once per invocation: realization 0 at
  // threads = 1 must end bitwise where the timed campaign at the
  // workload's layout ends. (On one-thread layouts this is a repetition,
  // so it checks run-to-run determinism.)
  const auto reference = run_campaign(realization(0), options(false, false, 1));
  tally.add(reference, "threads=1 reference");
  const double host_peak = traced ? crkhacc::gpu::host_peak_gflops() : 0.0;

  // Timed campaigns until the budget is spent. A traced run measures
  // pairs: realization r untraced, then the same realization traced, so
  // the tracing overhead compares like with like.
  std::vector<double> setup_s, tts, overhead;
  std::uint64_t updates = 0;
  std::vector<std::map<std::string, double>> layer_runs;
  double untraced_tts = 0.0;
  crkhacc::Stopwatch budget;
  const int min_campaigns = traced ? 2 : 1;
  for (int n = 0; n < min_campaigns || budget.seconds() < opt.seconds; ++n) {
    const bool trace_this = traced && n % 2 == 1;
    const int r = traced ? n / 2 : n;
    const auto c =
        run_campaign(realization(r), options(trace_this, trace_this && r == 0));
    tally.add(c, trace_this ? "traced campaign" : "campaign");
    std::printf("campaign %d (realization %d, %s): setup %.4f s, time to "
                "solution %.4f s, %llu updates, digest %016llx\n",
                n, r, trace_this ? "traced" : "untraced", c.setup_s, c.tts_s,
                static_cast<unsigned long long>(c.updates),
                static_cast<unsigned long long>(c.digest));
    std::fflush(stdout);
    setup_s.push_back(c.setup_s);
    if (r == 0 && c.digest != reference.digest) {
      tally.fail_run("final state differs from the threads=1 reference");
    }
    if (trace_this) {
      layer_runs.push_back(c.layers);
      overhead.push_back(c.tts_s / untraced_tts - 1.0);
    } else {
      tts.push_back(c.tts_s);
      updates += c.updates;
      untraced_tts = c.tts_s;
    }
  }
  // Set-up alone is a few ms on the gravity workloads and its thread
  // start-up is noisy: repeat it until the median rests on at least 15
  // samples and about two seconds of set-up.
  double setup_total = 0.0;
  for (const double t : setup_s) setup_total += t;
  for (int r = 0;
       setup_s.size() < 15 || (setup_total < 2.0 && setup_s.size() < 401);
       ++r) {
    CampaignOptions o = options(false, false);
    o.setup_only = true;
    setup_s.push_back(run_campaign(realization(r), o).setup_s);
    setup_total += setup_s.back();
  }

  std::map<std::string, double> metrics;
  if (!traced) {
    // Ensemble figures: throughput is all updates over all PM-step-loop
    // seconds, and time to solution the mean over the realizations, so
    // updates_per_s x time_to_solution_s is the mean summed active_updates
    // per campaign.
    double seconds = 0.0;
    for (const double t : tts) seconds += t;
    const double mean_updates =
        static_cast<double>(updates) / static_cast<double>(tts.size());
    metrics["updates_per_s"] = static_cast<double>(updates) / seconds;
    metrics["time_to_solution_s"] = seconds / static_cast<double>(tts.size());
    metrics["setup_s"] = median(setup_s);
    metrics["peak_rss_mib"] = peak_rss_mib();
    const double product =
        metrics["updates_per_s"] * metrics["time_to_solution_s"];
    if (std::abs(product - mean_updates) > 1e-9 * mean_updates) {
      tally.fail_run("updates_per_s x time_to_solution_s != mean updates");
    }
  } else {
    // Per-layer values: median over the traced campaigns. Kernel rates
    // exist only in the campaign that ran the replay.
    std::map<std::string, std::vector<double>> samples;
    for (const auto& run : layer_runs) {
      for (const auto& [name, value] : run) samples[name].push_back(value);
    }
    for (const auto& [name, values] : samples) metrics[name] = median(values);
    metrics["gpu.host_peak_gflops"] = host_peak;
    // Below the run-to-run spread the overhead can read negative; it is
    // reported as zero then.
    metrics["util.trace_overhead_frac"] = std::max(0.0, median(overhead));
  }

  // Self-check of the record.
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value) || value < 0.0) {
      tally.fail_run("metric " + name + " is NaN or negative");
    }
  }

  std::printf("campaigns: %zu untraced, %zu traced; set-up samples %zu\n",
              tts.size(), layer_runs.size(), setup_s.size());
  for (const auto& [name, value] : metrics) {
    std::printf("  %-40s %.6g %s\n", name.c_str(), value, unit_of(name));
  }
  for (const auto& f : tally.failures) std::printf("FAILED %s\n", f.c_str());

  const bool correct = tally.failures.empty();
  const std::uint64_t failed =
      tally.run_failed ? tally.attempted : tally.failed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  tally.attempted, 1)),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, unit_of(name));
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
