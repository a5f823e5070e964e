// Seeded SimCase generation: the front half of the deterministic
// simulation-testing loop. One seed fans out (via independent splitmix64
// streams) into a random topology, a random restricted policy mix, a
// random flow sample and a random scripted churn / crash / Byzantine
// schedule -- every dimension the paper's comparative claims range over.
// The same seed always yields the byte-identical SimCase.
#pragma once

#include <cstdint>

#include "simtest/simcase.hpp"

namespace idr {

// What callers vary; the policy mix, the schedule's shape and the
// message-fault ceilings are constants in scenario_generator.cpp.
struct SimCaseParams {
  std::uint64_t seed = 1;

  // Topology size range (uniform); generate_topology_of_size needs >= 8.
  std::uint32_t min_ads = 10;
  std::uint32_t max_ads = 28;

  // Flow sample size.
  std::size_t flow_count = 24;

  // Scripted events land in [0.1, 0.5] * horizon so a quiet tail remains
  // for reconvergence before outcomes are read.
  SimTime horizon_ms = 4000.0;
  double permanent_failure_prob = 0.3;  // link-down with no repair
  double byzantine_prob = 0.25;         // chance of one Byzantine AD
  // Chance of one restart storm (an AD crash/restarting several times in
  // quick succession -- the graceful-restart schedule shape). Drawn from
  // its own splitmix64 stream, so changing it never reshuffles the other
  // schedule dimensions of an existing seed.
  double restart_storm_prob = 0.2;
};

// Deterministic in params (pure function of the seed and knobs).
SimCase generate_sim_case(const SimCaseParams& params);

}  // namespace idr
