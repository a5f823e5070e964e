// The flap storm the distance-vector transcript pins and the allocation
// budget run after a cold start: two seeded transit-transit links, each
// down and up for four 200 ms cycles at 50% duty, from 200 ms after the
// current time -- the shape of the repository benchmark's idrp-1e4 storm
// (perfbench/bench.cpp) at test size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "sim/network.hpp"
#include "topology/graph.hpp"
#include "util/prng.hpp"

namespace idr {

// The seeds the repository benchmark builds its profile and storm from.
constexpr std::uint64_t kBenchProfileSeed = 0x5ca1eULL;
constexpr std::uint64_t kBenchStormSeed = 0x73746f726dULL;

// Schedules the storm on `injector`, which must outlive the run.
inline void schedule_flap_storm(FailureInjector& injector, Engine& engine,
                                const Topology& topo) {
  constexpr std::size_t kLinks = 2;
  constexpr std::uint32_t kCycles = 4;
  constexpr SimTime kPeriodMs = 200.0;
  std::vector<LinkId> pool;
  for (const Link& l : topo.links()) {
    if (topo.can_transit(l.a) && topo.can_transit(l.b)) pool.push_back(l.id);
  }
  Prng prng(kBenchStormSeed);
  prng.shuffle(pool);
  const SimTime onset = engine.now() + kPeriodMs;
  for (std::size_t i = 0; i < std::min(kLinks, pool.size()); ++i) {
    const double phase =
        kPeriodMs * static_cast<double>(prng.below(1024)) / 1024.0;
    injector.flap_link(pool[i], onset + phase, kPeriodMs, 0.5, kCycles);
  }
}

// Schedules the storm on `net` and runs the engine until it drains.
inline void run_flap_storm(Network& net, Engine& engine,
                           const Topology& topo) {
  FailureInjector injector(net);
  schedule_flap_storm(injector, engine, topo);
  engine.run();
}

}  // namespace idr
