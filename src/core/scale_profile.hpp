// Paper-scale deployment profile (paper §2.1: ~1e5 ADs of which only
// ~1e2 are transit). A flat all-pairs run is infeasible and unfaithful at
// that size -- the paper's internet is hierarchical -- so this profile
// stands up the four design points the way they would actually deploy:
//
//  * topology: pure backbone/regional/campus hierarchy (no campus
//    laterals or bypasses; every campus is a single-homed stub), with
//    the transit core held near 1e2 ADs at every size;
//  * DV family (ECMA, IDRP): only a stratified sample of `beacon` stub
//    ADs originates reachability, so RIBs are O(beacons) while every AD
//    still participates in transit and the protocols' dynamics are
//    exercised network-wide;
//  * LS family (LS-HbH, ORWG): hierarchical mode -- transit-only
//    flooding with stubs listed as attachments, databases O(transit).
//
// Used by tools/scenario_matrix (the BENCH_scale.json baseline) and the
// scale soak test; kept in core/ so both argue about the same deployment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_harness.hpp"
#include "policy/database.hpp"
#include "proto/ecma/partial_order.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "topology/generator.hpp"
#include "topology/graph.hpp"

namespace idr {

struct ScaleProfile {
  Topology topo;
  PolicySet policies;      // open transit at every transit AD
  OrderResult order;       // ECMA's partial order (structural only)
  std::vector<AdId> beacons;   // originating DV destinations (stubs)
  std::vector<AdId> transits;  // every transit-capable AD
  std::vector<char> is_beacon;  // indexed by AdId
};

// Hierarchy shape for `target_ads` total ADs with the transit core capped
// near the paper's 1e2 (exact counts are deterministic in target_ads).
[[nodiscard]] GeneratorParams scale_params(std::uint32_t target_ads);

// Deterministic profile: topology from (params, seed), open-transit
// policies, partial order, and `beacon_count` stratified stub beacons.
[[nodiscard]] ScaleProfile make_scale_profile(std::uint32_t target_ads,
                                              std::uint64_t seed,
                                              std::uint32_t beacon_count = 64);

// The scale runs' preset (make_scale_factory, run_scale_chaos): one
// traffic class, 10 ms MRAI, one IDRP route per beacon with shared
// updates, hierarchical LS, and only the profile's beacons originate DV
// reachability. The profile must outlive the factory.
[[nodiscard]] DesignConfig scale_design_config(const ScaleProfile& profile);

// Node factory for one design point over the profile with that preset
// (profile must outlive the factory).
[[nodiscard]] Network::NodeFactory make_scale_factory(
    const std::string& arch, const ScaleProfile& profile);

// Hierarchy-aware shard plan over the profile's topology: regional
// subtrees stay whole (a region's metros and campuses ride with their
// regional AD), backbone ADs are individually placeable. This is the
// partition the parallel matrix and the parallel soaks run; pass it to
// Engine::enable_sharding before anything is scheduled.
[[nodiscard]] ShardPlan make_scale_shard_plan(const ScaleProfile& profile,
                                              std::uint32_t shards);

}  // namespace idr
