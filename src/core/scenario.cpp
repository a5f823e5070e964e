#include "core/scenario.hpp"

#include "topology/generator.hpp"
#include "util/check.hpp"

namespace idr {
namespace {

constexpr double kAvoidFraction = 0.1;  // stubs with an avoid-list entry

}  // namespace

std::vector<FlowSpec> sample_flows(const Topology& topo, std::size_t count,
                                   Prng& prng) {
  std::vector<AdId> endpoints;
  for (const Ad& ad : topo.ads()) {
    if (ad.role != AdRole::kTransit) endpoints.push_back(ad.id);
  }
  IDR_CHECK_MSG(endpoints.size() >= 2, "need at least two end-system ADs");
  std::vector<FlowSpec> flows;
  flows.reserve(count);
  while (flows.size() < count) {
    FlowSpec flow;
    flow.src = prng.pick(endpoints);
    flow.dst = prng.pick(endpoints);
    if (flow.src == flow.dst) continue;
    // Mostly default-class traffic, with a tail exercising the policy
    // dimensions (QoS, user class, time of day).
    if (prng.bernoulli(0.3)) {
      flow.qos = static_cast<Qos>(prng.below(kQosCount));
    }
    if (prng.bernoulli(0.4)) {
      flow.uci = static_cast<UserClass>(prng.below(kUserClassCount));
    }
    flow.hour = prng.bernoulli(0.3)
                    ? static_cast<std::uint8_t>(prng.below(24))
                    : 12;
    flows.push_back(flow);
  }
  return flows;
}

Scenario make_scenario(const ScenarioParams& params) {
  Prng prng(params.seed);
  Scenario scenario;
  scenario.name = "ads" + std::to_string(params.target_ads) + "-seed" +
                  std::to_string(params.seed);
  scenario.topo = generate_topology_of_size(params.target_ads, prng);

  RestrictionParams restrict;
  restrict.restrict_prob = params.restrict_prob;
  restrict.source_selectivity = params.source_selectivity;
  scenario.policies = make_restricted_policies(
      scenario.topo, make_provider_customer_policies(scenario.topo), restrict,
      prng);
  if (params.aup_on_first_backbone) {
    for (const Ad& ad : scenario.topo.ads()) {
      if (ad.cls == AdClass::kBackbone) {
        apply_aup(scenario.policies, ad.id);
        break;
      }
    }
  }
  add_source_avoidance(scenario.topo, scenario.policies, kAvoidFraction,
                       prng);

  scenario.flows = sample_flows(scenario.topo, params.flow_count, prng);
  return scenario;
}

}  // namespace idr
