// Shared per-design-point harness: everything needed to stand up one of
// the paper's four detailed design points (ECMA, IDRP, LS-HbH, ORWG) over
// an arbitrary scenario and interrogate its data plane from the outside.
//
// Every driver builds on this: the Table-1 adapters (core/adapters.*),
// the chaos layer (core/chaos.*) that runs the Figure 1 internetwork
// through randomized churn, the deterministic simulation-testing
// subsystem (simtest/*) that runs generated internets through scripted
// schedules and cross-checks every design point against the
// ground-truth oracle, and the paper-scale profile (core/scale_profile.*).
// One node factory, one forwarding walk and one per-design ground truth
// guarantee they all argue about the same protocols.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "policy/database.hpp"
#include "policy/flow.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/lshh/lshh_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "topology/graph.hpp"

namespace idr {

// The four design points every adversarial driver exercises.
const std::vector<std::string>& design_point_names();

// Stub/multi-homed roles never transit (paper §2.1); shared by the
// adapters that derive policy from roles.
[[nodiscard]] bool is_stub_role(const Topology& topo, AdId ad);

// ECMA's role shaping: stub/multi-homed ADs advertise only themselves,
// and a hybrid AD -- ECMA can express destination filters only -- serves
// transit solely toward its own neighbors.
void shape_ecma_role(EcmaConfig& config, const Topology& topo, AdId ad);

// The transit rule that shaping implies, for the ground-truth oracles:
// may `ad` carry ECMA traffic toward `dst`?
[[nodiscard]] bool ecma_transits(const Topology& topo, AdId ad, AdId dst);

// Engine backend selection shared by the differential runner and the
// scale benches: the optional sharded-parallel execution mode. shards
// <= 1 keeps the engine sequential (the reference backend); shards > 1
// partitions the topology along the hierarchy and runs conservative
// lookahead windows -- inline on the driver thread when threads == 0,
// or on `threads` workers. Results are byte-identical across all of
// these for the same seed.
struct EngineBackend {
  std::uint32_t shards = 1;
  unsigned threads = 0;
  // Shrink the window lookahead below the topology's minimum cross-shard
  // delay (window-boundary stress in tests); 0 keeps the partitioner's
  // value. Never enlarges it.
  double lookahead_ms = 0.0;
};

// Partition `topo` and enable sharding on a freshly constructed engine
// per `backend` (no-op when shards <= 1).
void apply_engine_backend(Engine& engine, const Topology& topo,
                          const EngineBackend& backend);

// The one config set every construction of the four design points goes
// through: each family struct is the template every AD's node copies
// (ECMA's then gets its role shaping). With `dv_originators` set
// (indexed by AdId, must outlive the factory) only the marked ADs
// originate ECMA / IDRP reachability; null keeps each template's
// `originate`.
struct DesignConfig {
  EcmaConfig ecma;
  IdrpConfig idrp;
  LshhConfig lshh;
  OrwgConfig orwg;
  const std::vector<char>* dv_originators = nullptr;
};

// The adversarial drivers' preset (run_chaos, run_differential):
// periodic full-state refresh in every design point and, when
// `defended`, every Byzantine defense armed -- ECMA's receiver-side
// partial-order enforcement, IDRP's clamping, LS origin authentication
// under `lsa_keys` and registry-validated synthesis against `policies`.
// `policies` and `lsa_keys` must outlive the factory.
[[nodiscard]] DesignConfig adversarial_design_config(
    double periodic_refresh_ms, bool defended, const PolicySet& policies,
    const std::vector<std::uint64_t>& lsa_keys);

// Per-AD LSA authentication keys (the modeled shared-secret registry),
// a pure function of the run's seed.
[[nodiscard]] std::vector<std::uint64_t> make_lsa_keys(std::uint64_t seed,
                                                       std::size_t ad_count);

// Node factory for `arch` over (topo, policies). `order` is required for
// "ecma" (and must outlive the factory), ignored otherwise. The returned
// factory is also suitable for Network::set_node_factory (cold restarts).
Network::NodeFactory make_design_factory(const std::string& arch,
                                         const Topology& topo,
                                         const PolicySet& policies,
                                         const OrderResult* order,
                                         const DesignConfig& config);

// The one hop-by-hop forwarding walk, shared by the design-point probes
// and the Table-1 baselines: `next_fn(cur, path)` names the successor of
// the AD currently holding the packet (nullopt: no forwarding choice, or
// a crashed node). No choice is a black hole, a revisited AD a loop. A
// transit AD that is quarantined or actively dropping traffic toward
// dst (Byzantine black hole / hijack) swallows the packet: the walk
// records the control plane's choice, the drop is the data plane's
// fate. A black-hole or looped probe keeps the hops it took.
//
// A revisit is found by scanning the path, which is a few hops long. A
// topology-sized visited set per probe (12.5 KB at 1e5 ADs) would be a
// heap allocation too large for malloc's per-thread cache on every walk,
// and its cost follows the allocator's free lists, not the walk.
template <typename NextFn>
Probe walk_probe(const Network& net, const Topology& topo, AdId src,
                 AdId dst, NextFn&& next_fn) {
  Probe probe;
  probe.path.push_back(src);
  AdId cur = src;
  while (cur != dst) {
    if (cur != src &&
        (net.is_quarantined(cur) || net.drops_traffic(cur, dst))) {
      probe.outcome = ProbeOutcome::kBlackHole;
      return probe;
    }
    const std::optional<AdId> next = next_fn(cur, probe.path);
    if (!next) {
      probe.outcome = ProbeOutcome::kBlackHole;
      return probe;
    }
    if (probe.path.size() > topo.ad_count() ||
        std::find(probe.path.begin(), probe.path.end(), *next) !=
            probe.path.end()) {
      probe.outcome = ProbeOutcome::kLooped;
      return probe;
    }
    probe.path.push_back(*next);
    cur = *next;
  }
  probe.outcome = ProbeOutcome::kDelivered;
  return probe;
}

// Flow-granular forwarding-walk probe: walks `arch`'s current data plane
// for one flow (hop-by-hop FIB walk, or the route server's answer for
// ORWG) and reports delivery / loop / black hole plus the hops taken. A
// quarantined or traffic-dropping AD on the way swallows the packet.
using FlowProbeFn = std::function<Probe(const FlowSpec&)>;
FlowProbeFn make_design_probe(const std::string& arch, Network& net,
                              const Topology& topo);

// The (src, dst) probe shape the InvariantMonitor wants: the flow probe
// at default traffic class.
InvariantMonitor::ProbeFn make_pair_probe(FlowProbeFn probe);

// Ground truth for ECMA: a destination is reachable only over an
// up*down*-shaped walk (paper §5.1.1) through ADs willing to transit,
// between live nodes over live links. With quarantine_only, actively
// traffic-dropping (but unquarantined) ADs still count as usable -- the
// auditor's honest-reachability view.
[[nodiscard]] bool ecma_reachable(const Network& net, const Topology& topo,
                                  const PartialOrder& order, AdId src,
                                  AdId dst, bool quarantine_only = false);

// Ground truth for the policy-term design points: a route exists iff the
// synthesis oracle finds one over the live topology and real policy
// database, avoiding crashed / quarantined / traffic-dropping ADs.
[[nodiscard]] bool policy_reachable(const Network& net, const Topology& topo,
                                    const PolicySet& policies, AdId src,
                                    AdId dst, bool quarantine_only = false);

// Per-design ground-truth reachability for the InvariantMonitor.
InvariantMonitor::ReachableFn make_design_reachable(
    const std::string& arch, const Network& net, const Topology& topo,
    const PolicySet& policies, const OrderResult* order,
    bool quarantine_only = false);

// Per-design path-compliance predicate: is this delivered src..dst path
// legal under the design's own notion of policy (the ECMA partial order /
// the Policy Term database)?
using PathComplianceFn = std::function<bool(
    AdId src, AdId dst, const std::vector<AdId>& path)>;
PathComplianceFn make_design_compliance(const std::string& arch,
                                        const Topology& topo,
                                        const PolicySet& policies,
                                        const OrderResult* order);

// FNV-1a fingerprint over every AD's message counters: two runs of the
// same seed must produce identical fingerprints (determinism gate).
[[nodiscard]] std::uint64_t counter_fingerprint(const Network& net,
                                                const Topology& topo);

}  // namespace idr
