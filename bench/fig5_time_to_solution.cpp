// Figure 5 + Section VI-B: cumulative time-to-solution and multi-tier I/O.
//
// Reproduces, at miniature scale, the paper's end-to-end accounting:
//  * cumulative wall time per PM step, split into the Fig. 5 component
//    taxonomy {short-range, analysis, I/O, long-range, tree, misc}, read
//    from the trace spans (core::kFig5Taxonomy);
//  * the component fractions next to the paper's values
//    {79.6%, 11.6%, 2.6%, 1.7%, 1.7%};
//  * NVMe vs PFS bandwidth per step and cumulative data written
//    (Fig. 5 bottom panel) on the throttled storage models;
//  * the hydro vs gravity-only cost ratio (paper: ~16x).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"
#include "comm/world.h"
#include "core/simulation.h"

using namespace crkhacc;

namespace {

struct StepTrace {
  std::uint64_t step;
  double z;
  double cumulative_seconds;
  double nvme_bw_mb_s;
  double pfs_bw_mb_s;
  double cumulative_gb;
};

}  // namespace

int main() {
  bench::print_header("Fig. 5 — time-to-solution and multi-tier I/O trace");

  const int ranks = 4;
  const std::string workdir =
      (std::filesystem::temp_directory_path() / "crkhacc_fig5").string();
  std::filesystem::remove_all(workdir);

  core::SimConfig config;
  config.np = 10;
  config.box = 20.0;
  config.ng = 20;
  config.rs_cells = 1.0;
  config.z_init = 30.0;
  config.z_final = 1.0;
  config.num_pm_steps = 8;
  config.bins.max_depth = 4;
  config.hydro = true;
  config.subgrid_on = true;
  config.analysis_every = 1;
  config.seed = 55;
  config.trace.enabled = true;  // the component breakdown reads the spans

  // Storage model: per-rank NVMe at 400 MB/s; one shared PFS at 60 MB/s.
  io::ThrottledStore pfs(
      io::StoreConfig{workdir + "/pfs", 60e6, 0.002, /*shared=*/true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        workdir + "/nvme" + std::to_string(r), 400e6, 0.0, false}));
  }

  std::vector<StepTrace> trace;
  // Fig. 5 category seconds summed over ranks, in kFig5Taxonomy order.
  std::vector<double> category_seconds(std::size(core::kFig5Taxonomy), 0.0);
  double gravity_only_seconds = 0.0;
  double hydro_seconds = 0.0;
  std::mutex mutex;

  comm::World world(ranks);
  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 3});
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    double cumulative = 0.0;
    for (int s = 0; s < config.num_pm_steps; ++s) {
      const auto report = sim.step(&writer);
      if (config.analysis_every > 0 && (s + 1) % config.analysis_every == 0) {
        sim.run_analysis();
      }
      cumulative += report.seconds;
      writer.drain();
      // Per-step I/O bandwidths from the writer's records.
      const auto records = writer.records();
      const auto& last = records.back();
      const auto bytes = static_cast<std::int64_t>(last.bytes);
      const auto total_bytes =
          comm.allreduce_scalar(bytes, comm::ReduceOp::kSum);
      const double local_s =
          comm.allreduce_scalar(last.local_seconds, comm::ReduceOp::kMax);
      const double pfs_s =
          comm.allreduce_scalar(last.pfs_seconds, comm::ReduceOp::kMax);
      const double cum_seconds =
          comm.allreduce_scalar(cumulative, comm::ReduceOp::kMax);
      double written = 0.0;
      for (const auto& record : records) written += record.bytes;
      const double total_written =
          comm.allreduce_scalar(written, comm::ReduceOp::kSum);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        trace.push_back(StepTrace{
            report.step, 1.0 / report.a1 - 1.0, cum_seconds,
            static_cast<double>(total_bytes) / 1e6 / std::max(1e-9, local_s),
            static_cast<double>(total_bytes) / 1e6 / std::max(1e-9, pfs_s),
            total_written / 1e9});
      }
    }
    // Commit the last analysis' spans, then sum categories over ranks;
    // the hydro cost is the slowest rank's category total.
    sim.trace().flush(sim.current_step());
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t c = 0; c < category_seconds.size(); ++c) {
        category_seconds[c] +=
            core::fig5_seconds(sim.trace(), core::kFig5Taxonomy[c].name);
      }
      hydro_seconds =
          std::max(hydro_seconds, core::fig5_total_seconds(sim.trace()));
    }
  });

  std::printf("%-6s %-8s %-14s %-14s %-14s %-12s\n", "step", "z",
              "cum. TTS [s]", "NVMe [MB/s]", "PFS [MB/s]", "written [GB]");
  bench::print_rule();
  for (const auto& t : trace) {
    std::printf("%-6llu %-8.2f %-14.2f %-14.1f %-14.1f %-12.4f\n",
                static_cast<unsigned long long>(t.step), t.z,
                t.cumulative_seconds, t.nvme_bw_mb_s, t.pfs_bw_mb_s,
                t.cumulative_gb);
  }
  bench::print_rule();

  std::printf("\ncomponent breakdown vs paper (Fig. 2 / Fig. 5):\n");
  // Paper fractions in kFig5Taxonomy order.
  const double paper[] = {0.796, 0.116, 0.026, 0.017, 0.017, 0.028};
  static_assert(std::size(paper) == std::size(core::kFig5Taxonomy));
  double all_seconds = 0.0;
  for (const double seconds : category_seconds) all_seconds += seconds;
  std::printf("%-14s %-12s %-12s\n", "component", "measured", "paper");
  for (std::size_t c = 0; c < category_seconds.size(); ++c) {
    std::printf("%-14s %-12.1f%% %-12.1f%%\n", core::kFig5Taxonomy[c].name,
                all_seconds > 0.0
                    ? 100.0 * category_seconds[c] / all_seconds
                    : 0.0,
                100.0 * paper[c]);
  }

  // Gravity-only comparison (paper: hydro run ~16x a gravity-only run).
  {
    auto go_config = config;
    go_config.hydro = false;
    go_config.subgrid_on = false;
    go_config.analysis_every = 0;
    comm::World world2(ranks);
    world2.run([&](comm::Communicator& comm) {
      core::SimContext ctx(go_config.threads);
      core::Simulation sim(ctx, comm, go_config);
      sim.initialize();
      sim.run();  // finalize_run flushes the trace
      const double total = comm.allreduce_scalar(
          core::fig5_total_seconds(sim.trace()), comm::ReduceOp::kMax);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        gravity_only_seconds = total;
      }
    });
  }
  std::printf("\nhydro vs gravity-only cost: %.2f s vs %.2f s -> %.1fx "
              "(paper: ~16x; 196 h vs 12 h)\n",
              hydro_seconds, gravity_only_seconds,
              hydro_seconds / std::max(1e-9, gravity_only_seconds));

  const double total_gb = trace.empty() ? 0.0 : trace.back().cumulative_gb;
  std::printf("\ntotal checkpoint data: %.3f GB over %zu steps "
              "(checkpoint-every-step policy, window pruned; see io_tiers "
              "for the direct-vs-multi-tier bandwidth comparison)\n",
              total_gb, trace.size());
  std::filesystem::remove_all(workdir);
  return 0;
}
