// Intra-node thread scaling of the short-range pipeline.
//
// The paper's node-level claim (Section IV): once the overloaded
// decomposition makes all short-range work node-local, it parallelizes
// across the device's compute lanes without changing the answer. This
// bench runs the identical one-rank hydro problem at 1..8 pool threads
// and reports, per thread count:
//
//   * wall time of the threaded phases (tree build + short-range),
//   * per-thread busy time from the pool's scheduler accounting, giving
//     the decomposition's critical path and the utilization/steal counts,
//   * a particle-state checksum proving bitwise identity across counts.
//
// Note on the substitute machine: like fig4_scaling, all workers share
// one physical core, so ideal scaling cannot appear in wall time. The
// figure of merit is the CRITICAL-PATH speedup: per-chunk busy time is
// measured with the thread CPU clock (so time-slice waits don't count),
// and the projected time on dedicated lanes is the serial remainder
// (serial wall minus the CPU work that moved into parallel regions)
// plus the longest worker lane. Emits a fig4-style JSON for plotting.
#include <cstdio>
#include <vector>

#include "common.h"
#include "comm/world.h"
#include "core/simulation.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

using namespace crkhacc;

namespace {

struct ThreadPoint {
  unsigned threads;
  double wall_seconds = 0.0;      ///< tree build + short range wall time
  double total_seconds = 0.0;     ///< full run wall time
  double busy_total = 0.0;        ///< summed worker busy seconds
  double critical_path = 0.0;     ///< longest per-worker busy time
  double region_wall = 0.0;       ///< wall time inside parallel regions
  double utilization = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t regions = 0;
  std::uint32_t checksum = 0;     ///< particle-state CRC (determinism)
};

ThreadPoint run_case(unsigned threads, const core::SimConfig& base) {
  ThreadPoint point;
  point.threads = threads;
  core::SimConfig config = base;
  config.threads = static_cast<int>(threads);
  config.trace.enabled = true;  // phase wall time is read from the spans
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    Stopwatch total;
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    for (int s = 0; s < config.num_pm_steps; ++s) sim.step();
    point.total_seconds = total.seconds();
    point.wall_seconds = core::fig5_seconds(sim.trace(), "short_range") +
                         core::fig5_seconds(sim.trace(), "tree_build");
    const auto& stats = sim.thread_pool().stats();
    for (double b : stats.busy_seconds) point.busy_total += b;
    point.critical_path = stats.critical_path_seconds();
    point.region_wall = stats.wall_seconds;
    point.utilization = stats.utilization();
    point.steals = stats.steals;
    point.regions = stats.parallel_regions;

    const auto& p = sim.particles();
    std::uint32_t crc = 0;
    crc = crc32(p.x.data(), p.x.size() * sizeof(float), crc);
    crc = crc32(p.y.data(), p.y.size() * sizeof(float), crc);
    crc = crc32(p.z.data(), p.z.size() * sizeof(float), crc);
    crc = crc32(p.vx.data(), p.vx.size() * sizeof(float), crc);
    crc = crc32(p.u.data(), p.u.size() * sizeof(float), crc);
    point.checksum = crc;
  });
  return point;
}

}  // namespace

int main() {
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  auto config = bench::scaled_config(1, 10, /*hydro=*/true);

  bench::print_header(
      "Intra-node thread scaling — short-range pipeline (1 rank, hydro)");
  std::printf("%-8s %-11s %-11s %-11s %-12s %-8s %-10s %-10s\n", "threads",
              "solver[s]", "busy[s]", "critical[s]", "cp-speedup", "util",
              "steals", "checksum");
  bench::print_rule();

  std::vector<ThreadPoint> points;
  for (unsigned t : thread_counts) points.push_back(run_case(t, config));

  // Serial reference: with threads=1 every caller takes the inline path,
  // so the phase wall time IS the serial work.
  const double serial_work = points.front().wall_seconds;
  for (const auto& pt : points) {
    // Critical-path speedup: the serial remainder (serial wall minus the
    // CPU work the pool absorbed into parallel regions) plus the longest
    // worker lane, vs all-serial execution. The remainder comes from the
    // SERIAL run so single-core oversubscription overhead in the threaded
    // runs' wall time does not leak into the projection.
    const double remainder = serial_work - pt.busy_total;
    const double cp_time = pt.threads == 1
                               ? serial_work
                               : std::max(remainder, 0.0) + pt.critical_path;
    const double cp_speedup = cp_time > 0.0 ? serial_work / cp_time : 1.0;
    std::printf("%-8u %-11.2f %-11.2f %-11.2f %-12.2fx %-8.2f %-10llu "
                "%08x\n",
                pt.threads, pt.wall_seconds, pt.busy_total, pt.critical_path,
                cp_speedup, pt.utilization,
                static_cast<unsigned long long>(pt.steals), pt.checksum);
  }

  bool deterministic = true;
  for (const auto& pt : points) {
    deterministic = deterministic && pt.checksum == points.front().checksum;
  }
  std::printf("\nbitwise determinism across thread counts: %s\n",
              deterministic ? "PASS (all checksums equal)" : "FAIL");
  std::printf("(all workers share one physical core here, so wall time "
              "cannot drop; busy time is thread-CPU time, and cp-speedup\n"
              " is the wall-time speedup the same fixed-chunk decomposition "
              "yields on dedicated lanes: serial remainder + longest worker\n"
              " lane vs all-serial.)\n\n");

  // fig4-style JSON for plotting.
  std::printf("JSON: {\"bench\": \"thread_scaling\", \"points\": [");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    const double remainder = serial_work - pt.busy_total;
    const double cp_time = pt.threads == 1
                               ? serial_work
                               : std::max(remainder, 0.0) + pt.critical_path;
    std::printf(
        "%s{\"threads\": %u, \"solver_seconds\": %.6f, "
        "\"busy_seconds\": %.6f, \"critical_path_seconds\": %.6f, "
        "\"cp_speedup\": %.4f, \"utilization\": %.4f, \"steals\": %llu, "
        "\"parallel_regions\": %llu, \"checksum\": \"%08x\"}",
        i ? ", " : "", pt.threads, pt.wall_seconds, pt.busy_total,
        pt.critical_path, cp_time > 0.0 ? serial_work / cp_time : 1.0,
        pt.utilization, static_cast<unsigned long long>(pt.steals),
        static_cast<unsigned long long>(pt.regions), pt.checksum);
  }
  std::printf("]}\n");
  return deterministic ? 0 : 1;
}
