#include "policy/generator.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"

namespace idr {
namespace {

// A restricted transit AD advertises this many PTs, each with a cost drawn
// uniformly from [1, kMaxRestrictedCost].
constexpr std::uint32_t kTermsPerRestrictedAd = 3;
constexpr std::uint32_t kMaxRestrictedCost = 8;

// Hierarchical children of `ad`: neighbors across hierarchical links whose
// class is strictly lower in the hierarchy (higher enum value).
std::vector<AdId> hierarchy_children(const Topology& topo, AdId ad) {
  std::vector<AdId> kids;
  for (const Adjacency& adj : topo.neighbors(ad)) {
    const Link& l = topo.link(adj.link);
    if (l.cls != LinkClass::kHierarchical) continue;
    if (static_cast<std::uint8_t>(topo.ad(adj.neighbor).cls) >
        static_cast<std::uint8_t>(topo.ad(ad).cls)) {
      kids.push_back(adj.neighbor);
    }
  }
  return kids;
}

}  // namespace

std::vector<AdId> customer_cone(const Topology& topo, AdId provider) {
  std::vector<AdId> cone;
  std::vector<bool> seen(topo.ad_count(), false);
  std::deque<AdId> frontier{provider};
  seen[provider.v] = true;
  while (!frontier.empty()) {
    const AdId cur = frontier.front();
    frontier.pop_front();
    for (AdId kid : hierarchy_children(topo, cur)) {
      if (seen[kid.v]) continue;
      seen[kid.v] = true;
      cone.push_back(kid);
      frontier.push_back(kid);
    }
  }
  std::sort(cone.begin(), cone.end());
  return cone;
}

PolicySet make_open_policies(const Topology& topo) {
  PolicySet policies(topo.ad_count());
  for (const Ad& ad : topo.ads()) {
    if (ad.role == AdRole::kTransit) {
      policies.add_term(open_transit_term(ad.id));
    } else if (ad.role == AdRole::kHybrid) {
      // Limited transit: only flows sourced by or destined to a neighbor.
      std::vector<AdId> neighbors;
      for (const Adjacency& adj : topo.neighbors(ad.id)) {
        neighbors.push_back(adj.neighbor);
      }
      PolicyTerm by_src = open_transit_term(ad.id, 0);
      by_src.sources = AdSet::of(neighbors);
      policies.add_term(std::move(by_src));
      PolicyTerm by_dst = open_transit_term(ad.id, 1);
      by_dst.dests = AdSet::of(neighbors);
      policies.add_term(std::move(by_dst));
    }
    // Stub and multi-homed ADs advertise no transit PTs.
  }
  return policies;
}

PolicySet make_provider_customer_policies(const Topology& topo) {
  PolicySet policies(topo.ad_count());
  for (const Ad& ad : topo.ads()) {
    if (ad.role == AdRole::kHybrid) {
      std::vector<AdId> neighbors;
      for (const Adjacency& adj : topo.neighbors(ad.id)) {
        neighbors.push_back(adj.neighbor);
      }
      PolicyTerm by_src = open_transit_term(ad.id, 0);
      by_src.sources = AdSet::of(neighbors);
      policies.add_term(std::move(by_src));
      PolicyTerm by_dst = open_transit_term(ad.id, 1);
      by_dst.dests = AdSet::of(neighbors);
      policies.add_term(std::move(by_dst));
      continue;
    }
    if (ad.role != AdRole::kTransit) continue;
    if (ad.cls == AdClass::kBackbone) {
      policies.add_term(open_transit_term(ad.id));
      continue;
    }
    // Regional/metro: carry only traffic from or to the customer cone.
    std::vector<AdId> cone = customer_cone(topo, ad.id);
    PolicyTerm from_cone = open_transit_term(ad.id, 0);
    from_cone.sources = AdSet::of(cone);
    policies.add_term(std::move(from_cone));
    PolicyTerm to_cone = open_transit_term(ad.id, 1);
    to_cone.dests = AdSet::of(std::move(cone));
    policies.add_term(std::move(to_cone));
  }
  return policies;
}

PolicySet make_restricted_policies(const Topology& topo,
                                   const PolicySet& base,
                                   const RestrictionParams& params,
                                   Prng& prng) {
  PolicySet policies(topo.ad_count());
  // Copy source policies and base terms; restrict some transit ADs.
  for (const Ad& ad : topo.ads()) {
    policies.source_policy(ad.id) = base.source_policy(ad.id);
    const bool restrict = topo.can_transit(ad.id) &&
                          ad.cls != AdClass::kBackbone &&
                          prng.bernoulli(params.restrict_prob);
    if (!restrict) {
      for (const PolicyTerm& t : base.terms(ad.id)) policies.add_term(t);
      continue;
    }
    for (std::uint32_t k = 0; k < kTermsPerRestrictedAd; ++k) {
      PolicyTerm t = open_transit_term(ad.id, k);
      // Source restriction: allow a random subset of all ADs.
      std::vector<AdId> allowed;
      for (const Ad& candidate : topo.ads()) {
        if (prng.bernoulli(params.source_selectivity)) {
          allowed.push_back(candidate.id);
        }
      }
      t.sources = AdSet::of(std::move(allowed));
      if (prng.bernoulli(params.qos_restrict_prob)) {
        t.qos_mask = qos_bit(static_cast<Qos>(prng.below(kQosCount)));
      }
      if (prng.bernoulli(params.uci_restrict_prob)) {
        t.uci_mask =
            uci_bit(static_cast<UserClass>(prng.below(kUserClassCount)));
      }
      if (prng.bernoulli(params.tod_restrict_prob)) {
        t.hour_begin = 8;
        t.hour_end = 18;
      }
      t.cost = static_cast<std::uint32_t>(prng.uniform(1, kMaxRestrictedCost));
      policies.add_term(std::move(t));
    }
  }
  return policies;
}

void apply_aup(PolicySet& policies, AdId backbone) {
  std::vector<PolicyTerm> revised(policies.terms(backbone).begin(),
                                  policies.terms(backbone).end());
  policies.clear_terms(backbone);
  if (revised.empty()) revised.push_back(open_transit_term(backbone));
  for (PolicyTerm& t : revised) {
    t.uci_mask = uci_bit(UserClass::kResearch);
    policies.add_term(std::move(t));
  }
}

void add_source_avoidance(const Topology& topo, PolicySet& policies,
                          double fraction, Prng& prng) {
  std::vector<AdId> transits;
  for (const Ad& ad : topo.ads()) {
    if (ad.role == AdRole::kTransit) transits.push_back(ad.id);
  }
  if (transits.empty()) return;
  for (const Ad& ad : topo.ads()) {
    if (ad.role != AdRole::kStub && ad.role != AdRole::kMultiHomed) continue;
    if (!prng.bernoulli(fraction)) continue;
    const AdId avoid = prng.pick(transits);
    policies.source_policy(ad.id).avoid.push_back(avoid);
  }
}

}  // namespace idr
