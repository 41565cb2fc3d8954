// Ablation (Section IV-B1): growable leaf bounding boxes vs rebuilding
// the tree every sub-cycle.
//
// CRK-HACC builds the chaining mesh and k-d leaves ONCE per PM step and
// only re-fits leaf AABBs as particles drift, trading extra neighbor
// overlap for the elimination of per-substep repartitioning. This bench
// runs the identical campaign both ways and reports the tree-build time,
// the force-kernel time (which grows slightly with the overlap), and the
// total — the paper's design wins when refit + overlap < rebuild.
#include <cstdio>
#include <mutex>

#include "common.h"
#include "comm/world.h"
#include "core/simulation.h"

using namespace crkhacc;

namespace {

struct Outcome {
  double tree_seconds = 0.0;
  double force_seconds = 0.0;
  double total_seconds = 0.0;
  std::uint64_t interactions = 0;
};

Outcome run_mode(bool rebuild_every_substep) {
  auto config = bench::scaled_config(1, 12, /*hydro=*/true);
  config.z_final = 3.0;  // let clustering develop so leaves actually drift
  config.num_pm_steps = 4;
  config.rebuild_tree_every_substep = rebuild_every_substep;
  config.trace.enabled = true;  // component times are read from the spans
  Outcome outcome;
  std::mutex mutex;
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    sim.run();  // finalize_run flushes the trace
    std::lock_guard<std::mutex> lock(mutex);
    outcome.tree_seconds = core::fig5_seconds(sim.trace(), "tree_build");
    outcome.force_seconds = core::fig5_seconds(sim.trace(), "short_range");
    outcome.total_seconds = core::fig5_total_seconds(sim.trace());
  });
  return outcome;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — grow-leaf-AABBs (paper design) vs rebuild-per-substep");

  const auto grow = run_mode(false);
  const auto rebuild = run_mode(true);

  std::printf("%-26s %-14s %-14s %-14s\n", "strategy", "tree [s]",
              "short-range [s]", "total [s]");
  bench::print_rule();
  std::printf("%-26s %-14.3f %-14.3f %-14.3f\n", "refit bounds (paper)",
              grow.tree_seconds, grow.force_seconds, grow.total_seconds);
  std::printf("%-26s %-14.3f %-14.3f %-14.3f\n", "rebuild every substep",
              rebuild.tree_seconds, rebuild.force_seconds,
              rebuild.total_seconds);
  bench::print_rule();
  std::printf("\ntree-time ratio (rebuild / refit): %.2fx\n",
              rebuild.tree_seconds / std::max(1e-9, grow.tree_seconds));
  std::printf("force-time overhead of grown leaves: %+.1f%%\n",
              100.0 * (grow.force_seconds - rebuild.force_seconds) /
                  std::max(1e-9, rebuild.force_seconds));
  std::printf("end-to-end: %s by %.1f%%\n",
              grow.total_seconds <= rebuild.total_seconds
                  ? "refit wins (matches the paper's design choice)"
                  : "rebuild wins at this scale",
              100.0 * std::abs(rebuild.total_seconds - grow.total_seconds) /
                  std::max(grow.total_seconds, rebuild.total_seconds));
  std::printf("\npaper: tree construction once per PM step keeps the "
              "combined tree+spectral cost at ~3%% of runtime; refits and\n"
              "interaction-list updates are far cheaper than the force "
              "kernels they feed.\n");
  return 0;
}
