// One campaign of a workload, driven only through the program's public
// entry points: World, SimContext, Simulation::initialize /
// initialize_from / run_slice / run_analysis, MultiTierWriter.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct CampaignOptions {
  /// Turn on the program's step tracing and collect the per-layer record.
  bool traced = false;
  /// Replay the pair kernels on the final state (traced campaigns only).
  bool replay = false;
  /// Pool threads per rank; < 1 keeps the workload's layout.
  int threads = 0;
  /// Stop after set-up: the campaign then measures setup_s only.
  bool setup_only = false;
  /// Root of the throttled checkpoint tiers (emptied afterwards).
  std::string workdir;
};

struct CampaignResult {
  /// PM-step slices the loop attempted, and how many of them belong to a
  /// campaign whose output checks failed (all of them, when one did).
  std::uint64_t steps_attempted = 0;
  std::uint64_t steps_failed = 0;
  /// Output-check failures, one line each; empty means correct.
  std::vector<std::string> failures;
  /// World, stores, SimContext and initialize() on all ranks.
  double setup_s = 0.0;
  /// First PM step through the last checkpoint drain and the analysis.
  double tts_s = 0.0;
  /// Sum over ranks and steps of StepReport::active_updates.
  std::uint64_t updates = 0;
  /// Order-independent bitwise digest of every owned particle.
  std::uint64_t digest = 0;
  /// Per-layer metrics by name (traced campaigns only).
  std::map<std::string, double> layers;
};

CampaignResult run_campaign(const Workload& workload,
                            const CampaignOptions& options);

}  // namespace perfbench
