// End-to-end tests of the Simulation driver: short cosmological runs,
// conservation and sanity invariants, restart equivalence, fault
// tolerance, and rank-count invariance.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <tuple>

#include "comm/world.h"
#include "core/diagnostics.h"
#include "core/simulation.h"

namespace crkhacc::core {
namespace {

namespace fs = std::filesystem;

SimConfig tiny_config(bool hydro) {
  SimConfig config;
  config.np = 8;
  config.box = 24.0;
  config.ng = 16;
  config.z_init = 20.0;
  config.z_final = 5.0;
  config.num_pm_steps = 3;
  config.hydro = hydro;
  config.subgrid_on = hydro;
  config.bins.max_depth = 4;
  config.seed = 99;
  return config;
}

class TempDir {
 public:
  TempDir() {
    // PID-qualified: ctest -j runs each case in its own process, so a
    // per-process counter alone collides across concurrent cases.
    path_ = fs::temp_directory_path() /
            ("crkhacc_sim_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

TEST(Simulation, GravityOnlyRunCompletes) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    const auto sim_config = tiny_config(/*hydro=*/false);
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    const auto result = sim.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.steps_done, 3u);
    // Global particle count conserved.
    std::int64_t owned = 0;
    const auto& p = sim.particles();
    for (std::size_t i = 0; i < p.size(); ++i) owned += p.is_owned(i);
    const auto total = comm.allreduce_scalar(owned, comm::ReduceOp::kSum);
    EXPECT_EQ(total, 8 * 8 * 8);
    // Everything finite and in the box.
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!p.is_owned(i)) continue;
      ASSERT_TRUE(std::isfinite(p.x[i]) && std::isfinite(p.vx[i]));
      ASSERT_GE(p.x[i], 0.0f);
      ASSERT_LT(p.x[i], 24.0f);
    }
    EXPECT_NEAR(sim.scale_factor(), 1.0 / 6.0, 1e-9);
  });
}

TEST(Simulation, HydroRunCompletesWithSaneState) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    const auto sim_config = tiny_config(/*hydro=*/true);
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    const auto result = sim.run();
    EXPECT_TRUE(result.completed);
    const auto& p = sim.particles();
    std::int64_t owned = 0;
    double mass = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!p.is_owned(i)) continue;
      ++owned;
      mass += p.mass[i];
      ASSERT_TRUE(std::isfinite(p.u[i]));
      ASSERT_GE(p.u[i], 0.0f);
      ASSERT_TRUE(std::isfinite(p.vx[i]));
      if (p.is_gas(i)) {
        ASSERT_GT(p.hsml[i], 0.0f);
        ASSERT_GE(p.rho[i], 0.0f);
      }
    }
    const auto total = comm.allreduce_scalar(owned, comm::ReduceOp::kSum);
    EXPECT_EQ(total, 2 * 8 * 8 * 8);
    const double total_mass =
        comm.allreduce_scalar(mass, comm::ReduceOp::kSum);
    const auto expected_mass = sim.background().mean_matter_density() *
                               24.0 * 24.0 * 24.0;
    EXPECT_NEAR(total_mass, expected_mass, 0.01 * expected_mass);
  });
}

TEST(Simulation, ThreadedRunConservationWithinSerialTolerances) {
  // Conservation regression for the threaded pipeline: a multi-step hydro
  // run with worker threads must show the same (small) mass/momentum
  // drift as the serial run. Bitwise determinism makes this exact: the
  // two runs end in identical global budgets.
  auto run_with = [](int threads) {
    ConservationSnapshot before, after;
    std::uint64_t regions = 0;
    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      auto config = tiny_config(true);
      config.threads = threads;
      SimContext ctx(config.threads);
      Simulation sim(ctx, comm, config);
      sim.initialize();
      before = measure_conservation(comm, sim.particles());
      const auto result = sim.run();
      EXPECT_TRUE(result.completed);
      EXPECT_EQ(result.threading.threads,
                static_cast<unsigned>(std::max(threads, 1)));
      regions = result.threading.parallel_regions;
      after = measure_conservation(comm, sim.particles());
    });
    return std::tuple{before, after, regions};
  };

  const auto [before1, after1, regions1] = run_with(1);
  const auto [before4, after4, regions4] = run_with(4);

  // Serial-run tolerance: subgrid sources move mass between species but
  // the total budget only changes through star formation / feedback,
  // which is bounded on this tiny box.
  EXPECT_LT(std::abs(mass_drift(before1, after1)), 1e-3);
  EXPECT_LT(after1.momentum_asymmetry, 0.05);

  // The threaded run matches the serial budgets exactly.
  EXPECT_EQ(after4.mass_total, after1.mass_total);
  EXPECT_EQ(after4.mass_gas, after1.mass_gas);
  EXPECT_EQ(after4.momentum, after1.momentum);
  EXPECT_EQ(after4.kinetic_energy, after1.kinetic_energy);
  EXPECT_EQ(after4.thermal_energy, after1.thermal_energy);
  EXPECT_EQ(after4.count, after1.count);
  // The threaded run really did go through the pool; the serial run
  // bypasses it entirely (callers take the inline path for threads=1).
  EXPECT_GT(regions4, 0u);
  EXPECT_EQ(regions1, 0u);
}

TEST(Simulation, StructureGrowsOverTime) {
  // The rms peculiar velocity must grow as structure forms.
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    auto config = tiny_config(false);
    config.num_pm_steps = 4;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    auto rms_velocity = [&] {
      const auto& p = sim.particles();
      double sum = 0.0;
      std::size_t n = 0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (!p.is_owned(i)) continue;
        sum += static_cast<double>(p.vx[i]) * p.vx[i] +
               static_cast<double>(p.vy[i]) * p.vy[i] +
               static_cast<double>(p.vz[i]) * p.vz[i];
        ++n;
      }
      return std::sqrt(sum / static_cast<double>(n));
    };
    const double v0 = rms_velocity();
    sim.run();
    EXPECT_GT(rms_velocity(), v0);
  });
}

TEST(Simulation, AdaptiveBinsPopulated) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const auto sim_config = tiny_config(true);
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    const auto report = sim.step();
    EXPECT_GE(report.depth, 0);
    EXPECT_EQ(report.substeps, 1ull << report.depth);
    EXPECT_GT(report.active_updates, 0u);
  });
}

TEST(Simulation, FlatSteppingForcesUniformBins) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    auto config = tiny_config(true);
    config.flat_stepping = true;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    sim.step();
    const auto& p = sim.particles();
    const auto bin0 = p.bin[0];
    for (std::size_t i = 0; i < p.size(); ++i) {
      ASSERT_EQ(p.bin[i], bin0);
    }
  });
}

TEST(Simulation, AnalysisProducesResults) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    auto config = tiny_config(false);
    config.z_init = 20.0;
    config.z_final = 2.0;
    config.num_pm_steps = 4;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    sim.run();
    const auto analysis = sim.run_analysis();
    EXPECT_GE(analysis.halo_count, 0);
    EXPECT_FALSE(analysis.power.k.empty());
    // The measured spectrum has power on large scales.
    EXPECT_GT(analysis.power.power.front(), 0.0);
    EXPECT_GT(analysis.slice.mean_density, 0.0);
    EXPECT_GE(analysis.slice.clumping, 1.0);
  });
}

// FNV-1a over the owned particles' evolved columns in id order.
std::uint64_t state_digest(const Particles& p) {
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.is_owned(i)) owned.push_back(i);
  }
  std::sort(owned.begin(), owned.end(),
            [&](std::size_t a, std::size_t b) { return p.id[a] < p.id[b]; });
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&](const void* data, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < bytes; ++k) {
      h = (h ^ b[k]) * 1099511628211ull;
    }
  };
  for (const std::size_t i : owned) {
    mix(&p.id[i], sizeof(p.id[i]));
    for (const auto* col : {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.mass,
                            &p.u, &p.rho, &p.hsml, &p.metal}) {
      mix(&(*col)[i], sizeof(float));
    }
  }
  return h;
}

// Pins the final state of a sub-cycled hydro + subgrid run (kicks over
// several bin intervals, subgrid sources fed the per-particle bin dt),
// so a change to the step's arithmetic order shows up as a digest
// mismatch rather than passing every tolerance test.
TEST(Simulation, SubcycledHydroStateDigestIsPinned) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const auto sim_config = tiny_config(/*hydro=*/true);
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    const auto result = sim.run();
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.steps_done, 3u);
    const auto& bins = sim.particles().bin;
    EXPECT_GT(*std::max_element(bins.begin(), bins.end()), 0);
    EXPECT_EQ(state_digest(sim.particles()), 2395098513749806308ull);
  });
}

TEST(Simulation, TimerTaxonomyCoversComponents) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    auto sim_config = tiny_config(true);
    sim_config.trace.enabled = true;
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    sim.step();  // a traced step flushes its own spans
    const auto& trace = sim.trace();
    const double categories = fig5_total_seconds(trace);
    EXPECT_GT(fig5_seconds(trace, "long_range"), 0.0);
    EXPECT_GT(fig5_seconds(trace, "tree_build"), 0.0);
    EXPECT_GT(fig5_seconds(trace, "short_range"), 0.0);
    EXPECT_GT(fig5_seconds(trace, "misc"), 0.0);
    // Short-range dominates, as in the paper's Fig. 5.
    EXPECT_GT(fig5_seconds(trace, "short_range"), 0.3 * categories);
    // The categories' spans are disjoint regions of the step and the
    // analysis: their sum cannot exceed those spans' totals.
    EXPECT_LE(categories,
              trace.total_seconds("step") + trace.total_seconds("analysis"));
    // FLOPs were recorded for the short-range kernels.
    EXPECT_GT(sim.flops().total_flops(), 0.0);
  });
}

TEST(Simulation, RankCountInvariantParticleTotals) {
  auto run_with = [](int ranks) {
    double mass = 0.0;
    std::int64_t count = 0;
    std::mutex mutex;
    comm::World world(ranks);
    world.run([&](comm::Communicator& comm) {
      const auto sim_config = tiny_config(false);
      SimContext ctx(sim_config.threads);
      Simulation sim(ctx, comm, sim_config);
      sim.initialize();
      sim.run();
      const auto& p = sim.particles();
      double local_mass = 0.0;
      std::int64_t local_count = 0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (!p.is_owned(i)) continue;
        local_mass += p.mass[i];
        ++local_count;
      }
      std::lock_guard<std::mutex> lock(mutex);
      mass += local_mass;
      count += local_count;
    });
    return std::make_pair(mass, count);
  };
  const auto [mass1, count1] = run_with(1);
  const auto [mass4, count4] = run_with(4);
  EXPECT_EQ(count1, count4);
  EXPECT_NEAR(mass1, mass4, 1e-6 * mass1);
}

TEST(Simulation, CheckpointRestartResumesExactStep) {
  TempDir dir;
  comm::World world(2);
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < 2; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
  }
  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 4});
    auto config = tiny_config(false);
    config.num_pm_steps = 3;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    sim.step(&writer);
    sim.step(&writer);
    writer.drain();
    comm.barrier();

    // Discover and restore: must land on step 2.
    const auto latest = io::latest_complete_checkpoint(pfs, comm.size());
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(*latest, 2u);
    Particles restored;
    io::SnapshotMeta meta;
    ASSERT_TRUE(io::restore_checkpoint(pfs, *latest, comm.rank(), meta,
                                       restored));
    SimContext ctx_resumed(config.threads);
    Simulation resumed(ctx_resumed, comm, config);
    resumed.initialize_from(std::move(restored), meta.step);
    EXPECT_EQ(resumed.current_step(), 2u);
    EXPECT_NEAR(resumed.scale_factor(), sim.scale_factor(), 1e-12);
    // The restored particle state matches the writer's source bit-exactly.
    const auto& a = sim.particles();
    const auto& b = resumed.particles();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.x[i], b.x[i]);
      ASSERT_EQ(a.vx[i], b.vx[i]);
      ASSERT_EQ(a.ghost[i], b.ghost[i]);
    }
    // And both can finish the campaign.
    const auto done = resumed.run();
    EXPECT_TRUE(done.completed);
    comm.barrier();
  });
}

TEST(Simulation, RestartContinuationIsBitExact) {
  // The strongest fault-tolerance property: a run restored from a
  // checkpoint and stepped once matches the uninterrupted run bit for
  // bit, because checkpoints carry the complete per-rank state (ghosts
  // included) and stepping is deterministic.
  TempDir dir;
  comm::World world(2);
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < 2; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
  }
  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 4});
    auto config = tiny_config(/*hydro=*/true);
    config.num_pm_steps = 3;
    SimContext ctx_original(config.threads);
    Simulation original(ctx_original, comm, config);
    original.initialize();
    original.step(&writer);  // checkpoint at step 1
    writer.drain();
    comm.barrier();
    original.step();  // continue uninterrupted to step 2

    Particles restored;
    io::SnapshotMeta meta;
    ASSERT_TRUE(io::restore_checkpoint(pfs, 1, comm.rank(), meta, restored));
    SimContext ctx_resumed(config.threads);
    Simulation resumed(ctx_resumed, comm, config);
    resumed.initialize_from(std::move(restored), meta.step);
    resumed.step();  // replay step 1 -> 2

    const auto& a = original.particles();
    const auto& b = resumed.particles();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.id[i], b.id[i]);
      ASSERT_EQ(a.x[i], b.x[i]);
      ASSERT_EQ(a.y[i], b.y[i]);
      ASSERT_EQ(a.z[i], b.z[i]);
      ASSERT_EQ(a.vx[i], b.vx[i]);
      ASSERT_EQ(a.u[i], b.u[i]);
      ASSERT_EQ(a.rho[i], b.rho[i]);
      ASSERT_EQ(a.species[i], b.species[i]);
    }
    comm.barrier();
  });
}

TEST(Simulation, FaultInjectionRecoversAndCompletes) {
  TempDir dir;
  comm::World world(2);
  // Shared stores across rank threads.
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < 2; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
  }
  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 4});
    auto config = tiny_config(false);
    config.num_pm_steps = 4;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    // MTTI chosen so roughly half the step attempts are interrupted.
    const io::FaultInjector fault(2.0 * sim.background().time_of(1.0), 5);
    const auto result = sim.run(&writer, &pfs, &fault);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.steps_done, 4u);
    writer.drain();
  });
}

TEST(Simulation, AnalysisCadenceCollectsResults) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    auto config = tiny_config(false);
    config.analysis_every = 2;
    config.num_pm_steps = 4;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    const auto result = sim.run();
    EXPECT_EQ(result.analyses.size(), 2u);  // after steps 2 and 4
  });
}

}  // namespace
}  // namespace crkhacc::core
