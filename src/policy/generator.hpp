// Policy-mix generators: build PolicySets expressing the policy shapes the
// paper discusses (§2.3): open transit, provider/customer ("carry traffic
// only for my customer cone"), acceptable-use (UCI) restrictions on a
// backbone, QoS subsets, time-of-day windows, and randomly sampled
// source-specific restrictions of tunable selectivity -- the knob used by
// the route-availability and policy-granularity experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "policy/database.hpp"
#include "topology/graph.hpp"
#include "util/prng.hpp"

namespace idr {

// Every transit AD: one allow-all PT. Hybrid ADs: PTs permitting transit
// only for flows sourced by or destined to a directly adjacent AD
// ("limited transit", paper §2.1).
PolicySet make_open_policies(const Topology& topo);

// Provider/customer policies: each regional/metro transit AD only carries
// flows whose source or destination lies in its hierarchical customer
// cone; backbones carry everything. This is the policy structure the
// paper's hierarchical topology motivates.
PolicySet make_provider_customer_policies(const Topology& topo);

// Customer cone of `provider`: all ADs reachable by descending hierarchical
// links only (provider itself excluded).
std::vector<AdId> customer_cone(const Topology& topo, AdId provider);

struct RestrictionParams {
  // Probability a transit AD replaces its open/cone PTs with restricted ones.
  double restrict_prob = 0.3;
  // Each restricted PT allows this fraction of ADs as sources.
  double source_selectivity = 0.5;
  // Probability a restricted PT limits QoS to one class.
  double qos_restrict_prob = 0.2;
  // Probability a restricted PT limits UCI to one class.
  double uci_restrict_prob = 0.2;
  // Probability a restricted PT has a (business-hours) time window.
  double tod_restrict_prob = 0.1;
};

// Starts from `base` (e.g. provider/customer) and randomly restricts
// transit ADs per `params`. How many PTs a restricted AD advertises and
// their cost range are constants in generator.cpp. Deterministic in prng.
PolicySet make_restricted_policies(const Topology& topo,
                                   const PolicySet& base,
                                   const RestrictionParams& params,
                                   Prng& prng);

// Applies a research-only acceptable-use policy to `backbone` (all its PTs
// get uci_mask = research), modeling the NSFNET AUP scenario.
void apply_aup(PolicySet& policies, AdId backbone);

// Gives `fraction` of stub ADs a random avoid-list entry (a transit AD
// they refuse to cross): source route-selection criteria.
void add_source_avoidance(const Topology& topo, PolicySet& policies,
                          double fraction, Prng& prng);

}  // namespace idr
