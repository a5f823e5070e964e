// Scenario construction: a topology, a policy mix, and a flow sample --
// the common input every architecture is evaluated on. Deterministic in
// the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "policy/database.hpp"
#include "policy/generator.hpp"
#include "topology/graph.hpp"
#include "util/prng.hpp"

namespace idr {

struct Scenario {
  std::string name;
  Topology topo;
  PolicySet policies;
  std::vector<FlowSpec> flows;
};

struct ScenarioParams {
  std::uint64_t seed = 1;
  std::uint32_t target_ads = 64;
  std::size_t flow_count = 64;

  // Policy mix over provider-customer transit: restricted transits get
  // three Policy Terms each, and a tenth of the stubs an avoid-list entry.
  bool aup_on_first_backbone = false;
  double restrict_prob = 0.25;         // fraction of transits restricted
  double source_selectivity = 0.6;     // sources allowed per restricted PT
};

Scenario make_scenario(const ScenarioParams& params);

// Random end-system flows: endpoints drawn from non-transit ADs (stub /
// multi-homed / hybrid), mostly default traffic class with a tail of
// QoS/UCI/time variation.
std::vector<FlowSpec> sample_flows(const Topology& topo, std::size_t count,
                                   Prng& prng);

}  // namespace idr
