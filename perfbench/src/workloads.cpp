#include "workloads.h"

namespace perfbench {

namespace {

// frontier_mini physics (examples/frontier_mini.cpp): CRKSPH + cooling /
// star formation / feedback from z 30 to 1.5 with SDC guardrails on, at
// np = 6 instead of 10 so that a run can average over several
// realizations. Four PM steps: at two the per-step energy gate trips and
// the replay/restart loop never ends (NOTES.md, known defects).
Workload hydro_box(std::uint64_t seed) {
  Workload w;
  w.name = "hydro_box";
  w.ranks = 4;
  w.threads = 1;
  auto& c = w.config;
  c.np = 6;
  c.box = 20.0;
  c.ng = 20;
  c.rs_cells = 1.0;
  c.z_init = 30.0;
  c.z_final = 1.5;
  c.num_pm_steps = 4;
  c.bins.max_depth = 4;
  c.hydro = true;
  c.subgrid_on = true;
  c.subgrid.star_formation.n_h_threshold = 1e-5;
  c.subgrid.star_formation.min_overdensity = 3.0;
  c.subgrid.star_formation.t_max_K = 1e7;
  c.subgrid.star_formation.efficiency = 0.5;
  c.subgrid.agn.seed_n_h = 5e-5;
  c.subgrid.agn.seed_exclusion = 2.0;
  c.sdc.enabled = true;
  c.seed = seed;
  w.checkpoints = true;
  w.analysis = true;
  return w;
}

// Gravity-only Zel'dovich lattice on one rank with a 4-thread pool: the
// only workload that exercises the thread pool, and PM/FFT run without
// communication.
Workload gravity_box(std::uint64_t seed) {
  Workload w;
  w.name = "gravity_box";
  w.ranks = 1;
  w.threads = 4;
  auto& c = w.config;
  c.np = 10;
  c.box = 2.0 * c.np;  // the mass resolution of bench/common.h
  c.ng = 2 * c.np;
  c.rs_cells = 1.0;
  c.z_init = 30.0;
  c.z_final = 1.5;
  c.num_pm_steps = 4;
  c.bins.max_depth = 4;
  c.hydro = false;
  c.subgrid_on = false;
  c.seed = seed;
  return w;
}

// Two Plummer spheres in the cores of ranks (0,0) and (1,1) of the 2x2x1
// grid (the bench/fig4_scaling load-balance case) with the balancer on:
// dense leaves, and comm wait plus imbalance set the wall time.
Workload clustered_lb(std::uint64_t seed) {
  Workload w;
  w.name = "clustered_lb";
  w.ranks = 4;
  w.threads = 1;
  auto& c = w.config;
  c.np = 32;
  c.box = 64.0;
  c.ng = 64;
  c.z_init = 20.0;
  c.z_final = 10.0;
  c.num_pm_steps = 3;
  c.hydro = false;
  c.subgrid_on = false;
  c.bins.max_depth = 2;
  c.sph.eta = 0.1f;  // chaining-mesh bin = short-range cutoff, not SPH
  c.lb.threshold = 1.2;
  c.seed = seed;
  crkhacc::testsupport::ClusteredIcConfig ic;
  ic.box = c.box;
  ic.count = 6000;
  ic.scale = 4.0;
  ic.seed = seed;
  ic.center_a = {16.0, 16.0, 32.0};
  ic.center_b = {48.0, 48.0, 32.0};
  w.clustered = ic;
  return w;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "hydro_box") return hydro_box(seed);
  if (name == "gravity_box") return gravity_box(seed);
  if (name == "clustered_lb") return clustered_lb(seed);
  return std::nullopt;
}

}  // namespace perfbench
