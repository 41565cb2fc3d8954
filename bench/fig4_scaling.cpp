// Figure 4: strong and weak scaling of the solver.
//
// The paper scales CRK-HACC from 128 to 9,000 Frontier nodes, reporting
// 92% strong- and 95% weak-scaling efficiency and 46.6 billion particles
// processed per second at full scale. We reproduce the experiment's
// *shape* on the simulated machine: the identical rank program runs at
// 1..8 ranks with (weak) fixed per-rank load and (strong) fixed total
// load, timing the solver (short-range + spectral) over early high-z
// steps exactly as Section VI-A does.
//
// Note on the substitute machine: ranks are threads on one physical core,
// so ideal scaling keeps the particles/s *constant* for weak scaling
// (total work grows with ranks on fixed silicon) and shrinks wall time
// proportionally to work for strong scaling. Efficiencies are defined
// against those ideals — the communication/imbalance overheads measured
// are the same ones the real machine pays.
// The load-balance section extends the scaling story to clustered
// matter: on a two-Plummer-sphere problem two of four ranks hold nearly
// all short-range work, and the dynamic balancer (lb_threshold) must
// recover at least 25% of the executed-work imbalance ratio without
// changing a single particle bit. --quick runs only that gate (as the
// fig4_scaling_smoke ctest target).
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "common.h"
#include "comm/world.h"
#include "core/simulation.h"
#include "gravity/short_range.h"
#include "support/clustered_ic.h"

using namespace crkhacc;

namespace {

struct ScalingPoint {
  int ranks;
  double solver_seconds;   ///< max over ranks
  std::uint64_t particles; ///< global particle count
  double gflops;           ///< aggregate kernel GFLOP executed
};

ScalingPoint run_case(int ranks, core::SimConfig config) {
  // Traced: the solver time is read from the spans. These runs keep the
  // load balancer off, so tracing cannot change a decision.
  config.trace.enabled = true;
  ScalingPoint point{ranks, 0.0, 0, 0.0};
  std::mutex mutex;
  comm::World world(ranks);
  world.run([&](comm::Communicator& comm) {
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    for (int s = 0; s < config.num_pm_steps; ++s) {
      sim.step();
    }
    const double solver_seconds =
        core::fig5_seconds(sim.trace(), "short_range") +
        core::fig5_seconds(sim.trace(), "long_range") +
        core::fig5_seconds(sim.trace(), "tree_build");
    const double max_seconds =
        comm.allreduce_scalar(solver_seconds, comm::ReduceOp::kMax);
    std::int64_t owned = 0;
    const auto& p = sim.particles();
    for (std::size_t i = 0; i < p.size(); ++i) owned += p.is_owned(i);
    const auto total = comm.allreduce_scalar(owned, comm::ReduceOp::kSum);
    const double flops = comm.allreduce_scalar(sim.flops().total_flops(),
                                               comm::ReduceOp::kSum);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      point.solver_seconds = max_seconds;
      point.particles = static_cast<std::uint64_t>(total);
      point.gflops = flops / 1e9;
    }
  });
  return point;
}

// --- dynamic load balancing on clustered matter --------------------------

struct LbPoint {
  double flop_ratio = 0.0;        ///< executed short-range FLOP max/mean
  double imbalance_before = 0.0;  ///< run-average decision-time ratio
  std::uint64_t packets = 0;      ///< work packets shipped, all ranks
  std::uint64_t checksum = 0;     ///< bitwise final-state digest
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

LbPoint run_lb_case(double lb_threshold, bool quick) {
  LbPoint point;
  std::mutex mutex;
  comm::World world(4);
  world.run([&](comm::Communicator& comm) {
    core::SimConfig config;
    config.np = 32;
    config.box = 64.0;
    config.ng = 64;
    config.z_init = 20.0;
    config.z_final = 10.0;
    config.num_pm_steps = quick ? 2 : 3;
    config.hydro = false;
    config.subgrid_on = false;
    config.bins.max_depth = 2;
    config.seed = 77;
    config.sph.eta = 0.1f;  // bin width = short-range cutoff, not SPH
    config.lb.threshold = lb_threshold;
    // Untraced: with tracing on, the balancer would read measured span
    // times instead of the census and its decisions would change.
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);

    // Two Plummer spheres in the cores of ranks (0,0) and (1,1) on the
    // 2x2x1 grid; ranks 1 and 2 start nearly empty.
    testsupport::ClusteredIcConfig ic;
    ic.box = config.box;
    ic.count = quick ? 3000 : 6000;
    ic.scale = 4.0;
    ic.seed = 5150;
    ic.center_a = {16.0, 16.0, 32.0};
    ic.center_b = {48.0, 48.0, 32.0};
    Particles p;
    if (comm.rank() == 0) p = testsupport::clustered_two_sphere_ic(ic);
    sim.initialize_from(std::move(p), 0);
    const auto result = sim.run();

    const double local =
        sim.flops().flops_of(gravity::ShortRangeKernel::kName);
    const double peak = comm.allreduce_scalar(local, comm::ReduceOp::kMax);
    const double total = comm.allreduce_scalar(local, comm::ReduceOp::kSum);
    const auto packets = comm.allreduce_scalar(
        static_cast<std::int64_t>(result.lb_packets_migrated),
        comm::ReduceOp::kSum);

    // Bitwise digest: FNV-1a over the id-sorted owned particle state,
    // per rank, then over the rank digests (particles stay home under
    // migration, so per-rank digests must match the unbalanced run's).
    std::map<std::uint64_t, std::array<float, 6>> state;
    const auto& particles = sim.particles();
    for (std::size_t i = 0; i < particles.size(); ++i) {
      if (!particles.is_owned(i)) continue;
      state[particles.id[i]] = {particles.x[i],  particles.y[i],
                                particles.z[i],  particles.vx[i],
                                particles.vy[i], particles.vz[i]};
    }
    std::uint64_t digest = 14695981039346656037ull;
    for (const auto& [id, s] : state) {
      digest = fnv1a(digest, &id, sizeof(id));
      digest = fnv1a(digest, s.data(), s.size() * sizeof(float));
    }
    const auto digests = comm.allgather_value(digest);

    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      point.flop_ratio = peak / (total / comm.size());
      point.packets = static_cast<std::uint64_t>(packets);
      if (result.lb_steps > 0) {
        point.imbalance_before =
            result.lb_imbalance_before / static_cast<double>(result.lb_steps);
      }
      point.checksum = 14695981039346656037ull;
      for (const std::uint64_t d : digests) {
        point.checksum = fnv1a(point.checksum, &d, sizeof(d));
      }
    }
  });
  return point;
}

/// Returns the number of failed gates (0 = pass).
int run_lb_gate(bool quick) {
  bench::print_header(
      "Fig. 4 addendum — dynamic load balance on clustered matter");
  std::printf("4 ranks (2x2x1), two Plummer spheres in opposite corner "
              "ranks, gravity only.\n\n");
  std::printf("%-14s %-16s %-16s %-12s %-18s\n", "balancer", "flop max/mean",
              "census ratio", "packets", "state checksum");
  bench::print_rule();
  const LbPoint off = run_lb_case(0.0, quick);
  std::printf("%-14s %-16.3f %-16s %-12llu %016llx\n", "off", off.flop_ratio,
              "-", static_cast<unsigned long long>(off.packets),
              static_cast<unsigned long long>(off.checksum));
  const LbPoint on = run_lb_case(1.2, quick);
  std::printf("%-14s %-16.3f %-16.3f %-12llu %016llx\n", "lb_threshold=1.2",
              on.flop_ratio, on.imbalance_before,
              static_cast<unsigned long long>(on.packets),
              static_cast<unsigned long long>(on.checksum));

  int failures = 0;
  const bool ratio_ok = on.flop_ratio <= 0.75 * off.flop_ratio;
  std::printf("\ngate: balanced ratio %.3f <= 0.75 x unbalanced %.3f — %s\n",
              on.flop_ratio, off.flop_ratio, ratio_ok ? "PASS" : "FAIL");
  failures += !ratio_ok;
  const bool bits_ok = on.checksum == off.checksum && off.packets == 0;
  std::printf("gate: balanced state bitwise identical to unbalanced — %s\n",
              bits_ok ? "PASS" : "FAIL");
  failures += !bits_ok;
  const bool engaged_ok = on.packets > 0;
  std::printf("gate: balancer engaged (packets migrated > 0) — %s\n",
              engaged_ok ? "PASS" : "FAIL");
  failures += !engaged_ok;
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  if (quick) return run_lb_gate(true) == 0 ? 0 : 1;

  const std::vector<int> rank_counts = {1, 2, 4, 8};

  bench::print_header("Fig. 4 — Weak scaling (fixed per-rank load)");
  std::printf("%-8s %-12s %-12s %-14s %-12s %-14s\n", "ranks", "particles",
              "solver[s]", "particles/s", "GFLOP/s", "efficiency");
  bench::print_rule();
  std::vector<ScalingPoint> weak;
  for (int ranks : rank_counts) {
    const auto config = bench::scaled_config(ranks, 8, /*hydro=*/true);
    weak.push_back(run_case(ranks, config));
    const auto& pt = weak.back();
    const double rate = static_cast<double>(pt.particles) *
                        config.num_pm_steps / pt.solver_seconds;
    // Weak ideal on shared silicon: constant aggregate GFLOP rate (the
    // extra ghost work of smaller subdomains is real work, as on the
    // production machine, and is charged to the rate, not to overhead).
    const double gflop_rate = pt.gflops / pt.solver_seconds;
    const double base_rate = weak.front().gflops / weak.front().solver_seconds;
    std::printf("%-8d %-12llu %-12.2f %-14.3e %-12.2f %-14.1f%%\n", ranks,
                static_cast<unsigned long long>(pt.particles),
                pt.solver_seconds, rate, gflop_rate,
                100.0 * gflop_rate / base_rate);
  }
  std::printf("\npaper: 95%% weak-scaling efficiency, 128 -> 9000 nodes; "
              "46.6e9 particles/s at full scale.\n\n");

  bench::print_header("Fig. 4 — Strong scaling (fixed total problem)");
  std::printf("%-8s %-12s %-12s %-12s %-14s %-12s\n", "ranks", "particles",
              "solver[s]", "GFLOP", "GFLOP/s", "efficiency");
  bench::print_rule();
  std::vector<ScalingPoint> strong;
  {
    // Fixed total: the 8-rank weak problem (np chosen for 8 ranks).
    auto config = bench::scaled_config(8, 8, /*hydro=*/true);
    for (int ranks : rank_counts) {
      strong.push_back(run_case(ranks, config));
      const auto& pt = strong.back();
      // Ghost layers make total work grow with rank count (as on the real
      // machine at shrinking subdomains); the FLOP rate isolates the
      // communication/synchronization overhead the figure probes.
      const double gflop_rate = pt.gflops / pt.solver_seconds;
      const double base_rate =
          strong.front().gflops / strong.front().solver_seconds;
      std::printf("%-8d %-12llu %-12.2f %-12.1f %-14.2f %-12.1f%%\n", ranks,
                  static_cast<unsigned long long>(pt.particles),
                  pt.solver_seconds, pt.gflops, gflop_rate,
                  100.0 * gflop_rate / base_rate);
    }
  }
  std::printf("\npaper: 92%% strong-scaling efficiency over nearly two "
              "orders of magnitude in node count.\n");
  std::printf("(efficiency = aggregate kernel-FLOP rate retained relative "
              "to 1 rank; ghost-layer growth at shrinking subdomains is\n"
              " real work and charged to the rate, so the loss isolates "
              "exchange/transpose/synchronization overhead — the quantity\n"
              " the paper's figure demonstrates.)\n\n");

  return run_lb_gate(false) == 0 ? 0 : 1;
}
