// Quickstart: a small cosmological hydrodynamics run, end to end.
//
// Generates Zel'dovich initial conditions for a 24 Mpc/h box with gas +
// dark matter, evolves it with the full CRK-HACC-style pipeline (PM
// gravity + CRKSPH + cooling/star formation/feedback, adaptive
// sub-cycling), and prints the in situ analysis: halos found, power
// spectrum, an ASCII density slice, and the paper's Fig. 5 time
// breakdown read from the run's trace spans.
//
//   ./examples/quickstart [num_ranks] [param_file]
//
// An optional parameter file overrides the defaults, e.g.:
//   np = 16
//   box = 32.0
//   sph_kernel = wendland
#include <cstdio>
#include <cstdlib>

#include "comm/world.h"
#include "core/param_file.h"
#include "core/simulation.h"

using namespace crkhacc;

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 2;

  core::SimConfig config;
  config.np = 12;            // 12^3 dm + 12^3 gas particles
  config.box = 24.0;         // Mpc/h
  config.ng = 24;            // PM mesh
  config.rs_cells = 1.0;     // compact handover, demo-friendly
  config.z_init = 30.0;
  config.z_final = 1.0;
  config.num_pm_steps = 12;
  config.bins.max_depth = 4;
  config.hydro = true;
  config.subgrid_on = true;
  config.seed = 2024;
  config.trace.enabled = true;  // the Fig. 5 breakdown reads the spans
  // Demo-resolution subgrid thresholds (coarse particle masses never
  // reach the production 0.13 cm^-3 star-formation density).
  config.subgrid.star_formation.n_h_threshold = 1e-5;
  config.subgrid.star_formation.min_overdensity = 3.0;
  config.subgrid.star_formation.t_max_K = 1e7;
  config.subgrid.star_formation.efficiency = 0.5;
  config.subgrid.agn.seed_n_h = 5e-5;
  config.subgrid.agn.seed_exclusion = 2.0;

  if (argc > 2) {
    const auto params = core::ParamFile::load(argv[2]);
    if (!params) {
      std::fprintf(stderr, "cannot read parameter file %s\n", argv[2]);
      return 1;
    }
    const auto unknown = params->apply(config);
    for (const auto& key : unknown) {
      std::fprintf(stderr, "warning: unknown parameter '%s'\n", key.c_str());
    }
  }

  std::printf("CRK-HACC mini quickstart: %zu^3 particle pairs, %.0f Mpc/h box, "
              "%d ranks\n\n",
              config.np, config.box, ranks);

  comm::World world(ranks);
  world.run([&](comm::Communicator& comm) {
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    const auto result = sim.run();

    if (comm.rank() == 0) {
      std::printf("steps completed: %llu  (final z = %.2f)\n",
                  static_cast<unsigned long long>(result.steps_done),
                  1.0 / sim.scale_factor() - 1.0);
      std::printf("\nper-step adaptive integration:\n");
      std::printf("  %-6s %-8s %-10s %-12s\n", "step", "depth", "substeps",
                  "updates");
      for (const auto& report : result.reports) {
        std::printf("  %-6llu %-8d %-10llu %-12llu\n",
                    static_cast<unsigned long long>(report.step), report.depth,
                    static_cast<unsigned long long>(report.substeps),
                    static_cast<unsigned long long>(report.active_updates));
      }
    }
    comm.barrier();

    const auto analysis = sim.run_analysis();
    sim.trace().flush(sim.current_step());  // commit the analysis spans
    if (comm.rank() == 0) {
      std::printf("\nin situ analysis at z = %.2f:\n", 1.0 / analysis.a - 1.0);
      std::printf("  FOF halos (>= 8 particles): %lld\n",
                  static_cast<long long>(analysis.halo_count));
      std::printf("  largest halo mass: %.3e x 1e10 Msun/h\n",
                  analysis.largest_halo_mass);
      std::printf("  stars formed: %lld, black holes: %lld, galaxies: %lld\n",
                  static_cast<long long>(analysis.star_count),
                  static_cast<long long>(analysis.bh_count),
                  static_cast<long long>(analysis.galaxy_count));
      for (const auto& so : analysis.so_halos) {
        if (!so.converged) continue;
        std::printf("  M200m of halo %llu: %.3e x 1e10 Msun/h inside "
                    "R200m = %.2f Mpc/h\n",
                    static_cast<unsigned long long>(so.tag), so.m_delta,
                    so.r_delta);
        break;  // largest only
      }
      std::printf("\n  P(k) [first shells]:\n");
      for (std::size_t s = 0; s < analysis.power.k.size() && s < 6; ++s) {
        std::printf("    k = %.3f h/Mpc   P = %.2f (Mpc/h)^3  (%llu modes)\n",
                    analysis.power.k[s], analysis.power.power[s],
                    static_cast<unsigned long long>(analysis.power.modes[s]));
      }
      std::printf("\n  density slice (z-slab, log overdensity):\n%s\n",
                  analysis::render_density_ascii(analysis.slice, 48).c_str());
      std::printf("  slice clumping <rho^2>/<rho>^2 = %.2f, median gas T = %.1f K\n",
                  analysis.slice.clumping, analysis.slice.t_median_K);

      std::printf("\ntime breakdown (rank 0), paper Fig. 5 style:\n");
      std::fputs(core::fig5_table(sim.trace()).c_str(), stdout);
    }
  });
  return 0;
}
