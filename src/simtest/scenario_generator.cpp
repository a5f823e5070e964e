#include "simtest/scenario_generator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "policy/generator.hpp"
#include "topology/generator.hpp"
#include "util/prng.hpp"

namespace idr {
namespace {

// Policy mix (fed to make_restricted_policies).
constexpr double kRestrictProb = 0.3;
constexpr double kSourceSelectivity = 0.6;
constexpr double kAvoidFraction = 0.15;
constexpr double kAupProb = 0.25;  // research-only AUP on the first backbone

// Schedule shape: events land in [0.1, kChurnFraction] * horizon.
constexpr double kChurnFraction = 0.5;
constexpr std::uint32_t kMaxLinkEvents = 4;
constexpr std::uint32_t kMaxCrashEvents = 2;
// Chance of one link-flap storm (a link cycling down/up several times in
// quick succession -- the schedule shape route-flap damping exists for),
// drawn from its own splitmix64 stream like the restart storm.
constexpr double kFlapStormProb = 0.2;
constexpr std::uint32_t kMaxFlapCycles = 4;     // 2..max cycles per storm
constexpr std::uint32_t kMaxRestartCycles = 3;  // 2..max cycles per storm

// Message-fault intensity ceilings (rates drawn uniformly below these).
constexpr double kMaxDuplicateRate = 0.02;
constexpr double kMaxReorderRate = 0.05;

}  // namespace

SimCase generate_sim_case(const SimCaseParams& params) {
  SimCase c;
  c.name = "seed-" + std::to_string(params.seed);
  c.seed = params.seed;
  c.horizon_ms = params.horizon_ms;

  // Independent streams per dimension: adding one more crash event must
  // not reshuffle the topology of the next seed's world.
  std::uint64_t topo_state = params.seed ^ 0x746f706fULL;     // "topo"
  std::uint64_t policy_state = params.seed ^ 0x706f6c69ULL;   // "poli"
  std::uint64_t flow_state = params.seed ^ 0x666c6f77ULL;     // "flow"
  std::uint64_t sched_state = params.seed ^ 0x7363686dULL;    // "schm"
  std::uint64_t fault_state = params.seed ^ 0x66617565ULL;    // "faue"
  std::uint64_t flap_state = params.seed ^ 0x666c6170ULL;     // "flap"
  std::uint64_t restart_state = params.seed ^ 0x72737472ULL;  // "rstr"

  // --- topology ---------------------------------------------------------
  Prng topo_prng(splitmix64(topo_state));
  const std::uint32_t span = params.max_ads >= params.min_ads
                                 ? params.max_ads - params.min_ads + 1
                                 : 1;
  const std::uint32_t target =
      params.min_ads + static_cast<std::uint32_t>(topo_prng.below(span));
  c.topo = generate_topology_of_size(std::max(8u, target), topo_prng);

  // --- policies ---------------------------------------------------------
  Prng policy_prng(splitmix64(policy_state));
  RestrictionParams restrict;
  restrict.restrict_prob = kRestrictProb;
  restrict.source_selectivity = kSourceSelectivity;
  c.policies = make_restricted_policies(
      c.topo, make_provider_customer_policies(c.topo), restrict, policy_prng);
  if (policy_prng.bernoulli(kAupProb)) {
    for (const Ad& ad : c.topo.ads()) {
      if (ad.cls == AdClass::kBackbone) {
        apply_aup(c.policies, ad.id);
        break;
      }
    }
  }
  add_source_avoidance(c.topo, c.policies, kAvoidFraction, policy_prng);

  // --- flows ------------------------------------------------------------
  Prng flow_prng(splitmix64(flow_state));
  c.flows = sample_flows(c.topo, params.flow_count, flow_prng);

  // --- message-fault intensity ------------------------------------------
  Prng fault_prng(splitmix64(fault_state));
  c.duplicate_rate = fault_prng.uniform01() * kMaxDuplicateRate;
  c.reorder_rate = fault_prng.uniform01() * kMaxReorderRate;

  // --- scripted schedule ------------------------------------------------
  Prng sched_prng(splitmix64(sched_state));
  const SimTime churn_begin = 0.1 * params.horizon_ms;
  const SimTime churn_end = kChurnFraction * params.horizon_ms;
  auto churn_time = [&] {
    return churn_begin + sched_prng.uniform01() * (churn_end - churn_begin);
  };

  const auto link_events =
      static_cast<std::uint32_t>(sched_prng.below(kMaxLinkEvents + 1));
  for (std::uint32_t i = 0; i < link_events && c.topo.link_count() > 0; ++i) {
    const Link& link =
        c.topo.links()[sched_prng.below(c.topo.link_count())];
    SimEvent e;
    e.kind = SimEvent::Kind::kLinkDown;
    e.at_ms = churn_time();
    e.a = link.a;
    e.b = link.b;
    if (!sched_prng.bernoulli(params.permanent_failure_prob)) {
      e.repair_ms =
          e.at_ms + 100.0 + sched_prng.uniform01() * (churn_end - e.at_ms);
    }
    c.events.push_back(e);
  }

  const auto crash_events =
      static_cast<std::uint32_t>(sched_prng.below(kMaxCrashEvents + 1));
  for (std::uint32_t i = 0; i < crash_events; ++i) {
    SimEvent e;
    e.kind = SimEvent::Kind::kCrash;
    e.at_ms = churn_time();
    e.ad = AdId{static_cast<std::uint32_t>(sched_prng.below(
        c.topo.ad_count()))};
    // Crashed nodes always restart: a cold-started RIB rebuilt from
    // scratch is the interesting case, a permanently dead node is just a
    // smaller topology.
    e.repair_ms =
        e.at_ms + 150.0 + sched_prng.uniform01() * (churn_end - e.at_ms);
    c.events.push_back(e);
  }

  if (sched_prng.bernoulli(params.byzantine_prob)) {
    std::vector<AdId> transits;
    std::vector<AdId> stubs;
    for (const Ad& ad : c.topo.ads()) {
      if (c.topo.can_transit(ad.id)) transits.push_back(ad.id);
      else stubs.push_back(ad.id);
    }
    if (!transits.empty()) {
      SimEvent e;
      e.kind = SimEvent::Kind::kByzantine;
      e.at_ms = churn_time();
      e.ad = sched_prng.pick(transits);
      static constexpr Misbehavior kTaxonomy[] = {
          Misbehavior::kRouteLeak, Misbehavior::kFalseOrigin,
          Misbehavior::kBlackHole, Misbehavior::kTamper};
      e.misbehavior = kTaxonomy[sched_prng.below(4)];
      if (e.misbehavior == Misbehavior::kFalseOrigin) {
        if (stubs.empty()) {
          e.misbehavior = Misbehavior::kRouteLeak;
        } else {
          e.victim = sched_prng.pick(stubs);
        }
      }
      c.events.push_back(e);
    }
  }

  // --- link-flap storm --------------------------------------------------
  Prng flap_prng(splitmix64(flap_state));
  if (flap_prng.bernoulli(kFlapStormProb) && c.topo.link_count() > 0) {
    const Link& link =
        c.topo.links()[flap_prng.below(c.topo.link_count())];
    SimEvent e;
    e.kind = SimEvent::Kind::kLinkFlap;
    e.at_ms = churn_begin +
              flap_prng.uniform01() * (churn_end - churn_begin) * 0.5;
    e.a = link.a;
    e.b = link.b;
    // Period comfortably above the keepalive detection floor, cycle count
    // small enough that the storm ends inside the churn window.
    e.period_ms = 150.0 + flap_prng.uniform01() * 150.0;
    e.cycles =
        2 + static_cast<std::uint32_t>(flap_prng.below(kMaxFlapCycles - 1));
    c.events.push_back(e);
  }

  // --- restart storm ----------------------------------------------------
  Prng restart_prng(splitmix64(restart_state));
  if (restart_prng.bernoulli(params.restart_storm_prob)) {
    // Transit ADs make the interesting storms (their outage reroutes
    // everyone behind them); fall back to any AD on all-stub topologies.
    std::vector<AdId> transits;
    for (const Ad& ad : c.topo.ads()) {
      if (c.topo.can_transit(ad.id)) transits.push_back(ad.id);
    }
    SimEvent e;
    e.kind = SimEvent::Kind::kRestartStorm;
    e.ad = transits.empty()
               ? AdId{static_cast<std::uint32_t>(
                     restart_prng.below(c.topo.ad_count()))}
               : restart_prng.pick(transits);
    e.at_ms = churn_begin +
              restart_prng.uniform01() * (churn_end - churn_begin) * 0.5;
    // Down phase (half the period) long enough for keepalive detection,
    // cycle count small enough that the storm ends inside churn.
    e.period_ms = 300.0 + restart_prng.uniform01() * 300.0;
    e.cycles = 2 + static_cast<std::uint32_t>(
                       restart_prng.below(kMaxRestartCycles - 1));
    c.events.push_back(e);
  }

  std::stable_sort(c.events.begin(), c.events.end(),
                   [](const SimEvent& x, const SimEvent& y) {
                     return x.at_ms < y.at_ms;
                   });
  return c;
}

}  // namespace idr
