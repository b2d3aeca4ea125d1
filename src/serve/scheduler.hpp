// Batching knobs shared by the serving configuration and the step scheduler
// (serve/step_scheduler.hpp): how many sessions a pack may carry, how long an
// open pack may wait for more work, the row budget, and the formation policy
// (serve/policy.hpp). max_batch = 1 is per-request execution: every pack
// carries one session.
#pragma once

#include <chrono>
#include <cstddef>

#include "serve/policy.hpp"

namespace haan::serve {

/// Pack formation knobs.
struct SchedulerConfig {
  /// Maximum sessions per pack; must be > 0.
  std::size_t max_batch = 8;

  /// Maximum time to hold an open pack waiting for more work.
  std::chrono::microseconds max_wait{1000};

  /// Row budget: cap on Σ step rows per pack (0 = unlimited). With a budget,
  /// mixed-length FIFO packs exhaust rows with few sequences while binned
  /// packs fill every max_batch slot — the lever that lets length binning
  /// raise pack occupancy.
  std::size_t max_rows = 0;

  /// Formation order + overload admission control (serve/policy.hpp).
  PolicyConfig policy;
};

}  // namespace haan::serve
