#include "core/scale_profile.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace idr {

GeneratorParams scale_params(std::uint32_t target_ads) {
  IDR_CHECK(target_ads >= 16);
  GeneratorParams p;
  p.metros_per_regional = 0;
  // Pure hierarchy: stubs stay stubs (the hierarchical LS modes and the
  // stub default-route both depend on it), and the transit core carries
  // all lateral structure.
  p.lateral_campus_prob = 0.0;
  p.bypass_prob = 0.0;
  p.multihome_prob = 0.0;
  p.hybrid_prob = 0.0;
  if (target_ads <= 200) {
    p.backbones = 2;
    p.regionals_per_backbone = 4;
  } else if (target_ads <= 2'000) {
    p.backbones = 3;
    p.regionals_per_backbone = 8;
  } else {
    // Paper shape: ~1e2 transit ADs however many stubs hang below.
    p.backbones = 4;
    p.regionals_per_backbone = 25;
  }
  const std::uint32_t parents = p.backbones * p.regionals_per_backbone;
  const std::uint32_t transit = p.backbones + parents;
  const std::uint32_t stubs = target_ads > transit ? target_ads - transit : parents;
  p.campuses_per_parent = std::max<std::uint32_t>(1u, stubs / parents);
  return p;
}

ScaleProfile make_scale_profile(std::uint32_t target_ads, std::uint64_t seed,
                                std::uint32_t beacon_count) {
  ScaleProfile profile;
  Prng prng(seed);
  profile.topo = generate_topology(scale_params(target_ads), prng);

  profile.policies.resize(profile.topo.ad_count());
  std::vector<AdId> stubs;
  for (const Ad& ad : profile.topo.ads()) {
    if (profile.topo.can_transit(ad.id)) {
      profile.transits.push_back(ad.id);
      profile.policies.add_term(open_transit_term(ad.id));
    } else {
      stubs.push_back(ad.id);
    }
  }
  profile.order = compute_partial_order(profile.topo, {});
  IDR_CHECK_MSG(profile.order.ok, "scale profile: partial order failed");

  // Stratified beacon sample over the stub population: every region of
  // the id space contributes, so probes cross the whole hierarchy.
  beacon_count = std::min<std::uint32_t>(
      beacon_count, static_cast<std::uint32_t>(stubs.size()));
  IDR_CHECK(beacon_count > 0);
  profile.is_beacon.assign(profile.topo.ad_count(), 0);
  const std::size_t step = std::max<std::size_t>(1, stubs.size() / beacon_count);
  for (std::size_t i = 0;
       i < stubs.size() && profile.beacons.size() < beacon_count; i += step) {
    profile.beacons.push_back(stubs[i]);
    profile.is_beacon[stubs[i].v] = 1;
  }
  return profile;
}

DesignConfig scale_design_config(const ScaleProfile& profile) {
  DesignConfig config;
  config.ecma.qos_mask = 1;  // single traffic class at scale
  config.ecma.mrai_ms = 10.0;  // coalesce the per-beacon update waves
  config.idrp.routes_per_dest = 1;  // one route per beacon destination
  config.idrp.mrai_ms = 10.0;
  config.idrp.shared_updates = true;  // open terms: one encode per wave
  config.lshh.hierarchical = true;
  config.orwg.hierarchical = true;
  config.dv_originators = &profile.is_beacon;
  return config;
}

Network::NodeFactory make_scale_factory(const std::string& arch,
                                        const ScaleProfile& profile) {
  return make_design_factory(arch, profile.topo, profile.policies,
                             &profile.order, scale_design_config(profile));
}

ShardPlan make_scale_shard_plan(const ScaleProfile& profile,
                                std::uint32_t shards) {
  return make_shard_plan(profile.topo, shards);
}

}  // namespace idr
