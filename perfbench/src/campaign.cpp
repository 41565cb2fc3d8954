#include "campaign.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "comm/world.h"
#include "core/simulation.h"
#include "gpu/device.h"
#include "gravity/short_range.h"
#include "io/multi_tier.h"
#include "mesh/force_split.h"
#include "sph/pair_kernels.h"
#include "sph/solver.h"
#include "tree/chaining_mesh.h"
#include "util/timer.h"
#include "util/trace.h"

namespace perfbench {

using namespace crkhacc;

namespace {

// --- output checks ----------------------------------------------------------

std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// Bitwise hash of one particle's physical state.
std::uint64_t particle_hash(const Particles& p, std::size_t i) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  add(p.id[i]);
  add(p.species[i]);
  for (const auto* field : {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.mass,
                            &p.u, &p.rho, &p.hsml, &p.metal}) {
    add(std::bit_cast<std::uint32_t>((*field)[i]));
  }
  return mix(h);
}

/// Order-independent digest of the owned particles on this rank: a sum of
/// per-particle hashes, so a change of storage order alone keeps it.
std::uint64_t local_digest(const Particles& p) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.is_owned(i)) sum += particle_hash(p, i);
  }
  return sum;
}

/// Every field finite; owned particles inside [0, box] (a float wrap of
/// x = -tiny lands exactly on box), ghost replicas inside the SDC
/// auditor's band of two overload widths around it (they keep drifting at
/// unwrapped image coordinates until the next exchange). Returns the
/// first violation, or "".
std::string state_violation(const Particles& p, double box, double overload) {
  const char* names[] = {"x",  "y",   "z",  "vx", "vy", "vz",
                         "mass", "u", "rho", "hsml", "metal"};
  for (std::size_t i = 0; i < p.size(); ++i) {
    int f = 0;
    for (const auto* field : {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.mass,
                              &p.u, &p.rho, &p.hsml, &p.metal}) {
      if (!std::isfinite((*field)[i])) {
        return std::string("non-finite ") + names[f] + " of particle " +
               std::to_string(p.id[i]);
      }
      ++f;
    }
    const bool owned = p.is_owned(i);
    const double margin = owned ? 0.0 : 2.0 * overload;
    for (const float c : {p.x[i], p.y[i], p.z[i]}) {
      if (c < -margin || c > box + margin) {
        return std::string(owned ? "owned" : "ghost") + " particle " +
               std::to_string(p.id[i]) + " at " + std::to_string(c) +
               " outside the box";
      }
    }
  }
  return {};
}

struct Census {
  std::int64_t owned = 0;
  double mass = 0.0;
};

Census census(comm::Communicator& comm, const Particles& p) {
  Census c;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!p.is_owned(i)) continue;
    ++c.owned;
    c.mass += p.mass[i];
  }
  c.owned = comm.allreduce_scalar(c.owned, comm::ReduceOp::kSum);
  c.mass = comm.allreduce_scalar(c.mass, comm::ReduceOp::kSum);
  return c;
}

// --- per-layer record -------------------------------------------------------

/// Exclusive (self) seconds per span name: each span's duration minus the
/// durations of its direct children on the same thread. Spans of one
/// thread are committed in open order, so the parent of a depth-d span
/// is the latest depth-(d-1) span opened before it.
std::map<std::string, double> self_seconds(const util::TraceRecorder& trace) {
  std::vector<const util::TraceEvent*> events;
  for (const auto& e : trace.events()) events.push_back(&e);
  std::stable_sort(events.begin(), events.end(), [](auto* a, auto* b) {
    return a->tid != b->tid ? a->tid < b->tid : a->open_seq < b->open_seq;
  });
  std::map<std::string, double> self;
  std::vector<const util::TraceEvent*> open_at_depth;
  std::uint32_t tid = 0;
  for (const auto* e : events) {
    if (e->tid != tid) {
      open_at_depth.clear();
      tid = e->tid;
    }
    self[e->name] += e->dur;
    if (e->depth > 0 && e->depth <= open_at_depth.size()) {
      self[open_at_depth[e->depth - 1]->name] -= e->dur;
    }
    open_at_depth.resize(e->depth + 1);
    open_at_depth[e->depth] = e;
  }
  return self;
}

/// Program spans folded into each per-layer seconds metric.
const std::vector<std::pair<const char*, std::vector<const char*>>>&
span_metrics() {
  static const std::vector<std::pair<const char*, std::vector<const char*>>>
      table = {
          {"core.exchange_s", {"exchange"}},
          {"core.sdc_snapshot_s", {"sdc_snapshot"}},
          {"core.sdc_audit_s", {"sdc_audit"}},
          {"core.lb_decide_s", {"load_balance"}},
          {"integrator.kick_s", {"kick"}},
          {"integrator.drift_s", {"drift"}},
          {"integrator.bin_assign_s", {"bin_assign"}},
          {"gravity.short_range_s", {gravity::ShortRangeKernel::kName}},
          {"sph.density_s", {"sph_density", "sph_eos"}},
          {"sph.crk_moments_s", {"crk_moments", "crk_coeff_solve"}},
          {"sph.momentum_energy_s", {"crk_momentum_energy"}},
          {"gpu.launch_plan_s", {"launch_plan"}},
          {"tree.build_s", {"tree_build", "cm_build"}},
          {"tree.refit_s", {"tree_refit", "cm_refit"}},
          {"tree.pairs_build_s", {"pairs_build"}},
          {"mesh.pm_s", {"long_range"}},
          {"mesh.deposit_s", {"pm_deposit"}},
          {"mesh.gradient_s", {"pm_gradient"}},
          {"mesh.interpolate_s", {"pm_interpolate"}},
          {"mesh.fetch_planes_s", {"pm_fetch_planes"}},
          {"fft.forward_s", {"fft_forward"}},
          {"fft.backward_s", {"fft_backward"}},
          {"comm.lb_wait_s", {"lb_return"}},
          {"subgrid.apply_s", {"subgrid"}},
      };
  return table;
}

enum class Reduce { kMean, kSum, kMax };

/// Rank-local per-layer values, reduced across ranks in one pass.
class LayerRecord {
 public:
  void add(const std::string& name, double value, Reduce op) {
    names_.push_back(name);
    values_.push_back(value);
    ops_.push_back(op);
  }

  /// Collective: every rank must add the same names in the same order.
  std::map<std::string, double> reduce(comm::Communicator& comm) const {
    std::vector<double> sum = values_;
    std::vector<double> max = values_;
    comm.allreduce(std::span<double>(sum), comm::ReduceOp::kSum);
    comm.allreduce(std::span<double>(max), comm::ReduceOp::kMax);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      switch (ops_[i]) {
        case Reduce::kMean:
          out[names_[i]] = sum[i] / static_cast<double>(comm.size());
          break;
        case Reduce::kSum:
          out[names_[i]] = sum[i];
          break;
        case Reduce::kMax:
          out[names_[i]] = max[i];
          break;
      }
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<double> values_;
  std::vector<Reduce> ops_;
};

/// Re-run the pair kernels once on the final state with every particle
/// active, on a copy, and record interactions, flops and launch seconds.
/// The replay registers into a copy of the campaign's FlopRegistry, so
/// each kernel must land under a name the campaign already recorded, with
/// exactly the flops its LaunchStats report.
void kernel_replay(core::Simulation& sim, comm::Communicator& comm,
                   LayerRecord& record, std::vector<std::string>& failures) {
  const auto& cfg = sim.config();
  Particles copy = sim.particles();
  util::ThreadPool& pool = sim.thread_pool();
  const double a = sim.scale_factor();
  const double width = sim.overload_width();
  const auto box = sim.decomposition().overloaded_box(comm.rank(), width);
  gpu::FlopRegistry registry = sim.flops();

  const auto cross_check = [&](const char* kernel, const gpu::LaunchStats& s,
                               double before, double per_interaction,
                               double per_partial) {
    if (sim.flops().flops_of(kernel) <= 0.0 && s.interactions > 0) {
      failures.push_back(std::string("replay: campaign recorded no flops "
                                     "under kernel ") + kernel);
    }
    if (registry.flops_of(kernel) - before != s.flops) {
      failures.push_back(std::string("replay: FlopRegistry and LaunchStats "
                                     "disagree for ") + kernel);
    }
    const double expected =
        per_interaction * static_cast<double>(s.interactions) +
        per_partial * static_cast<double>(s.partial_evals);
    if (s.flops != expected) {
      failures.push_back(std::string("replay: flops != interactions x "
                                     "flops/interaction for ") + kernel);
    }
  };

  std::uint64_t leaf_pairs = 0;
  tree::ChainingMesh mesh(box, {width, 64});
  mesh.build(copy, &pool);
  const mesh::ForceSplit split(
      cfg.rs_cells * cfg.box / static_cast<double>(cfg.ng),
      cfg.split_threshold);
  const auto pairs = mesh.interaction_pairs(split.cutoff());
  leaf_pairs += pairs.size();
  const char* gname = gravity::ShortRangeKernel::kName;
  const double gbefore = registry.flops_of(gname);
  comm.barrier();
  const auto g = gravity::compute_short_range(copy, mesh, &split, cfg.gravity,
                                              a, nullptr, registry, &pairs,
                                              &pool);
  cross_check(gname, g, gbefore,
              gravity::ShortRangeKernel::kFlopsPerInteraction,
              gravity::ShortRangeKernel::kFlopsPerPartial);
  record.add("gravity.interactions", static_cast<double>(g.interactions),
             Reduce::kSum);
  record.add("replay.gravity_s", g.seconds, Reduce::kSum);
  record.add("replay.gravity_flops", g.flops, Reduce::kSum);

  gpu::LaunchStats density, moments, momentum;
  if (cfg.hydro) {
    std::vector<std::uint32_t> gas;
    for (std::size_t i = 0; i < copy.size(); ++i) {
      if (copy.is_gas(i)) gas.push_back(static_cast<std::uint32_t>(i));
    }
    tree::ChainingMesh gas_mesh(box, {width, 64});
    gas_mesh.build(copy, gas, &pool);
    const auto gas_pairs = gas_mesh.interaction_pairs(
        sph::SphSolver::interaction_radius(copy, gas_mesh));
    leaf_pairs += gas_pairs.size();
    sph::SphSolver solver(cfg.sph);
    const double before_d = registry.flops_of(sph::DensityKernel::kName);
    const double before_m = registry.flops_of(sph::CrkMomentKernel::kName);
    const double before_e =
        registry.flops_of(sph::MomentumEnergyKernel::kName);
    comm.barrier();
    solver.compute_forces(copy, gas_mesh, a, nullptr, registry, &gas_pairs,
                          &pool);
    const auto& stats = solver.last_stats();
    const auto get = [&](const char* name) {
      const auto it = stats.find(name);
      return it == stats.end() ? gpu::LaunchStats{} : it->second;
    };
    density = get(sph::DensityKernel::kName);
    moments = get(sph::CrkMomentKernel::kName);
    momentum = get(sph::MomentumEnergyKernel::kName);
    cross_check(sph::DensityKernel::kName, density, before_d,
                sph::DensityKernel::kFlopsPerInteraction,
                sph::DensityKernel::kFlopsPerPartial);
    cross_check(sph::CrkMomentKernel::kName, moments, before_m,
                sph::CrkMomentKernel::kFlopsPerInteraction,
                sph::CrkMomentKernel::kFlopsPerPartial);
    cross_check(sph::MomentumEnergyKernel::kName, momentum, before_e,
                sph::MomentumEnergyKernel::kFlopsPerInteraction,
                sph::MomentumEnergyKernel::kFlopsPerPartial);
  }
  record.add("sph.interactions",
             static_cast<double>(density.interactions + moments.interactions +
                                 momentum.interactions),
             Reduce::kSum);
  record.add("replay.density_interactions",
             static_cast<double>(density.interactions), Reduce::kSum);
  record.add("replay.density_s", density.seconds, Reduce::kSum);
  record.add("replay.momentum_interactions",
             static_cast<double>(momentum.interactions), Reduce::kSum);
  record.add("replay.momentum_s", momentum.seconds, Reduce::kSum);
  record.add("replay.sph_flops", density.flops + moments.flops + momentum.flops,
             Reduce::kSum);
  record.add("replay.sph_s",
             density.seconds + moments.seconds + momentum.seconds,
             Reduce::kSum);
  record.add("tree.leaf_pairs", static_cast<double>(leaf_pairs), Reduce::kSum);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Kernel rates from the replay sums: interactions (or flops) per second
/// of launch time, summed over ranks, so the rate is per rank-second.
void finish_replay(std::map<std::string, double>& m, int threads) {
  const double peak = gpu::host_peak_gflops() * threads;
  m["gravity.interactions_per_s"] =
      ratio(m["gravity.interactions"], m["replay.gravity_s"]);
  m["gravity.peak_frac"] =
      ratio(m["replay.gravity_flops"] / 1e9, m["replay.gravity_s"]) / peak;
  m["sph.density.interactions_per_s"] =
      ratio(m["replay.density_interactions"], m["replay.density_s"]);
  m["sph.momentum_energy.interactions_per_s"] =
      ratio(m["replay.momentum_interactions"], m["replay.momentum_s"]);
  m["sph.peak_frac"] =
      ratio(m["replay.sph_flops"] / 1e9, m["replay.sph_s"]) / peak;
  for (auto it = m.begin(); it != m.end();) {
    it = it->first.starts_with("replay.") ? m.erase(it) : std::next(it);
  }
}

}  // namespace

CampaignResult run_campaign(const Workload& workload,
                            const CampaignOptions& options) {
  const int threads = options.threads > 0 ? options.threads : workload.threads;
  core::SimConfig config = workload.config;
  config.threads = threads;
  config.trace.enabled = options.traced;
  const auto steps = static_cast<std::uint64_t>(config.num_pm_steps);

  CampaignResult out;
  std::mutex out_mutex;
  const auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out.failures.push_back(what);
  };

  Stopwatch setup_clock;
  comm::World world(workload.ranks);
  std::unique_ptr<io::ThrottledStore> pfs;
  std::vector<std::unique_ptr<io::ThrottledStore>> nvme;
  if (workload.checkpoints) {
    // Storage models of examples/frontier_mini: private 400 MB/s NVMe per
    // rank, one shared 40 MB/s PFS channel with 2 ms per-op latency.
    pfs = std::make_unique<io::ThrottledStore>(io::StoreConfig{
        options.workdir + "/pfs", 40e6, 0.002, /*shared_channel=*/true});
    for (int r = 0; r < workload.ranks; ++r) {
      nvme.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
          options.workdir + "/nvme" + std::to_string(r), 400e6, 0.0,
          /*shared_channel=*/false}));
    }
  }

  world.run([&](comm::Communicator& comm) {
    const int rank = comm.rank();
    core::SimContext ctx(threads);
    std::optional<io::MultiTierWriter> writer;
    if (workload.checkpoints) {
      io::MultiTierConfig wc;
      wc.rank = rank;
      wc.checkpoint_window = 3;
      wc.ckpt = config.ckpt;
      writer.emplace(*nvme[static_cast<std::size_t>(rank)], *pfs, wc);
    }
    core::Simulation sim(ctx, comm, config);
    if (workload.clustered) {
      Particles p;
      if (rank == 0) {
        p = testsupport::clustered_two_sphere_ic(*workload.clustered);
      }
      sim.initialize_from(std::move(p), 0);
    } else {
      sim.initialize();
    }
    comm.barrier();
    if (rank == 0) out.setup_s = setup_clock.seconds();
    if (options.setup_only) return;

    const Census before = census(comm, sim.particles());
    const std::uint64_t bytes0 = comm.bytes_sent();
    const std::uint64_t ops0 = comm.op_count();
    io::MultiTierWriter* w = writer ? &*writer : nullptr;

    // The PM-step loop: one run_slice per PM step, capped at the step
    // count, so an SDC escalation or a replay/restart livelock ends the
    // campaign as failed instead of hanging it.
    comm.barrier();
    Stopwatch tts_clock;
    core::RunResult result;
    bool done = false;
    std::uint64_t attempted = 0;
    double step_s = 0.0, wait_s = 0.0;
    while (!done && attempted < steps) {
      Stopwatch step_clock;
      done = sim.run_slice(1, result, w, pfs.get());
      step_s += step_clock.seconds();
      ++attempted;
      Stopwatch wait_clock;
      comm.barrier();
      wait_s += wait_clock.seconds();
      if (result.sdc_escalations > 0 || result.interruptions > 0) break;
    }
    double drain_s = 0.0;
    if (w) {
      Stopwatch drain_clock;
      w->drain();
      drain_s = drain_clock.seconds();
    }
    core::AnalysisResult analysis;
    double analysis_s = 0.0;
    if (workload.analysis) {
      Stopwatch analysis_clock;
      analysis = sim.run_analysis();
      analysis_s = analysis_clock.seconds();
    }
    comm.barrier();
    const double tts = tts_clock.seconds();
    const std::uint64_t bytes = comm.bytes_sent() - bytes0;
    const std::uint64_t ops = comm.op_count() - ops0;
    sim.finalize_run(result, w);

    // --- output checks (collective verdicts) ------------------------------
    std::uint64_t updates = 0, substeps = 0;
    double blocked = 0.0;
    std::int64_t ghosts = 0, stars = 0;
    for (const auto& r : result.reports) {
      updates += r.active_updates;
      substeps += r.substeps;
      blocked += r.io_blocked_seconds;
      ghosts += r.exchange.ghosts;
      stars += r.subgrid.stars_formed;
    }
    std::vector<std::string> collective_failures;
    if (!done || !result.completed || result.steps_done != steps) {
      collective_failures.push_back("PM steps incomplete: " +
                               std::to_string(result.steps_done) + " of " +
                               std::to_string(steps));
    }
    if (result.sdc_detections != 0 || result.sdc_escalations != 0 ||
        result.recovery_attempts != 0 || result.restarts_from_ics != 0 ||
        result.interruptions != 0) {
      collective_failures.push_back("SDC detections/escalations/recoveries");
    }
    const std::string violation =
        state_violation(sim.particles(), config.box, sim.overload_width());
    if (!violation.empty()) {
      fail("rank " + std::to_string(rank) + " " + violation);
    }
    const Census after = census(comm, sim.particles());
    if (after.owned != before.owned) {
      collective_failures.push_back("particle count not conserved");
    }
    if (std::abs(after.mass - before.mass) >
        core::SdcConfig{}.mass_drift_tol * std::abs(before.mass)) {
      collective_failures.push_back("total mass drifted beyond 1e-6");
    }
    std::uint64_t digest = 0;
    for (const auto d : comm.allgather_value(local_digest(sim.particles()))) {
      digest += d;
    }
    const auto total_updates = comm.allreduce_scalar(
        static_cast<std::int64_t>(updates), comm::ReduceOp::kSum);

    // --- per-layer record (traced campaigns) ------------------------------
    std::map<std::string, double> layers;
    if (options.traced) {
      LayerRecord record;
      const auto self = self_seconds(sim.trace());
      for (const auto& [metric, spans] : span_metrics()) {
        double seconds = 0.0;
        for (const char* span : spans) {
          const auto it = self.find(span);
          if (it != self.end()) seconds += it->second;
        }
        record.add(metric, seconds, Reduce::kMean);
      }
      record.add("core.step_s", step_s, Reduce::kMean);
      record.add("core.updates", static_cast<double>(updates), Reduce::kSum);
      record.add("core.substeps", static_cast<double>(substeps), Reduce::kMax);
      record.add("core.ghosts", static_cast<double>(ghosts), Reduce::kSum);
      record.add("core.sdc_rollbacks",
                 static_cast<double>(result.sdc_rollbacks), Reduce::kMax);
      double imbalance = 1.0;
      for (const auto& phase : result.phase_stats) {
        if (phase.name == "short_range") imbalance = phase.imbalance();
      }
      record.add("core.rank_imbalance", imbalance, Reduce::kMax);
      record.add("gravity.flops",
                 sim.flops().flops_of(gravity::ShortRangeKernel::kName),
                 Reduce::kSum);
      record.add("sph.flops",
                 sim.flops().flops_of(sph::DensityKernel::kName) +
                     sim.flops().flops_of(sph::CrkMomentKernel::kName) +
                     sim.flops().flops_of(sph::MomentumEnergyKernel::kName),
                 Reduce::kSum);
      record.add("kernel.flops", sim.flops().total_flops(), Reduce::kSum);
      record.add("kernel.seconds", sim.flops().total_seconds(), Reduce::kSum);
      record.add("comm.bytes_sent", static_cast<double>(bytes), Reduce::kSum);
      record.add("comm.ops", static_cast<double>(ops), Reduce::kSum);
      record.add("comm.step_wait_s", wait_s, Reduce::kMean);
      record.add("subgrid.stars", static_cast<double>(stars), Reduce::kSum);
      record.add("analysis.run_s", analysis_s, Reduce::kMean);
      record.add("io.ckpt_blocked_s", blocked, Reduce::kMean);
      record.add("io.drain_s", drain_s, Reduce::kMean);
      record.add("io.chunks_written",
                 static_cast<double>(result.io.chunks_written), Reduce::kSum);
      record.add("io.retries",
                 static_cast<double>(result.io.local_retries +
                                     result.io.pfs_retries),
                 Reduce::kSum);
      record.add("util.pool_utilization", result.threading.utilization(),
                 Reduce::kMean);
      record.add("util.pool_steals",
                 static_cast<double>(result.threading.steals), Reduce::kSum);
      if (options.replay) {
        std::vector<std::string> replay_failures;
        kernel_replay(sim, comm, record, replay_failures);
        for (const auto& f : replay_failures) {
          fail("rank " + std::to_string(rank) + " " + f);
        }
      }
      layers = record.reduce(comm);
      layers["analysis.halos"] = static_cast<double>(analysis.halo_count);
      layers["gpu.kernel_gflops"] =
          ratio(layers["kernel.flops"] / 1e9, layers["kernel.seconds"]);
      layers.erase("kernel.flops");
      layers.erase("kernel.seconds");
      if (options.replay) finish_replay(layers, threads);
    }

    for (const auto& f : collective_failures) {
      if (rank == 0) fail(f);
    }
    if (rank == 0) {
      std::lock_guard<std::mutex> lock(out_mutex);
      out.steps_attempted = attempted;
      out.tts_s = tts;
      out.updates = static_cast<std::uint64_t>(total_updates);
      out.digest = digest;
      out.layers = std::move(layers);
    }
  });

  if (!out.failures.empty()) out.steps_failed = out.steps_attempted;
  nvme.clear();
  pfs.reset();
  std::error_code ignored;
  std::filesystem::remove_all(options.workdir, ignored);
  return out;
}

}  // namespace perfbench
