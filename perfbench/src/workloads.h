// The benchmark's canonical workloads. Each is one campaign of the
// program, built only from the benchmark seed; why each exists is in
// perfbench/NOTES.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/config.h"
#include "support/clustered_ic.h"

namespace perfbench {

struct Workload {
  std::string name;
  int ranks = 1;
  /// Pool threads per rank. ranks x threads is the compute-thread budget
  /// and never exceeds the 4 cores the workloads were sized for.
  int threads = 1;
  crkhacc::core::SimConfig config;
  /// Start from the two-Plummer-sphere cloud (handed to rank 0 through
  /// Simulation::initialize_from) instead of Zel'dovich ICs.
  std::optional<crkhacc::testsupport::ClusteredIcConfig> clustered;
  /// Write a full CKC2 checkpoint every PM step through the throttled
  /// node-local NVMe and shared PFS models.
  bool checkpoints = false;
  /// Run in situ analysis once after the last PM step.
  bool analysis = false;
};

/// The named workload with `seed` applied; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

}  // namespace perfbench
