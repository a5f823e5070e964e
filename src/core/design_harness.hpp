// Shared per-design-point harness: everything needed to stand up one of
// the paper's four detailed design points (ECMA, IDRP, LS-HbH, ORWG) over
// an arbitrary scenario and interrogate its data plane from the outside.
//
// Both adversarial drivers build on this: the chaos layer (core/chaos.*)
// runs the Figure 1 internetwork through randomized churn, and the
// deterministic simulation-testing subsystem (simtest/*) runs generated
// internets through scripted schedules and cross-checks every design
// point against the ground-truth oracle. Keeping the node factories,
// forwarding-walk probes and per-design ground-truth reachability in one
// place guarantees the two drivers argue about the same protocols.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "policy/database.hpp"
#include "policy/flow.hpp"
#include "proto/ecma/partial_order.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "topology/graph.hpp"

namespace idr {

struct EcmaConfig;

// The four design points every adversarial driver exercises.
const std::vector<std::string>& design_point_names();

// Stub/multi-homed roles never transit (paper §2.1); shared by the
// adapters that derive policy from roles.
[[nodiscard]] bool is_stub_role(const Topology& topo, AdId ad);

// ECMA's role shaping: stub/multi-homed ADs advertise only themselves,
// and a hybrid AD -- ECMA can express destination filters only -- serves
// transit solely toward its own neighbors.
void shape_ecma_role(EcmaConfig& config, const Topology& topo, AdId ad);

// Engine backend selection shared by the differential runner and the
// scale benches: scheduler choice plus the optional sharded-parallel
// execution mode. shards <= 1 keeps the engine sequential (the
// reference backend); shards > 1 partitions the topology along the
// hierarchy and runs conservative lookahead windows -- inline on the
// driver thread when threads == 0, or on `threads` workers. Results are
// byte-identical across all of these for the same seed.
struct EngineBackend {
  SchedulerKind scheduler = SchedulerKind::kCalendar;
  std::uint32_t shards = 1;
  unsigned threads = 0;
  // Shrink the window lookahead below the topology's minimum cross-shard
  // delay (window-boundary stress in tests); 0 keeps the partitioner's
  // value. Never enlarges it.
  double lookahead_ms = 0.0;
};

// Partition `topo` and enable sharding on a freshly constructed engine
// per `backend` (no-op when shards <= 1). Must run before the Network is
// built: per-shard delivery aggregates are sized at Network construction.
void apply_engine_backend(Engine& engine, const Topology& topo,
                          const EngineBackend& backend);

struct HarnessConfig {
  // Arm the per-design-point Byzantine defenses (ECMA receiver-side
  // partial-order enforcement, IDRP clamping, LS/LSHH origin auth, ORWG
  // registry-validated synthesis).
  bool defended = false;
  // Periodic full-state refresh per node; 0 disables.
  double periodic_refresh_ms = 300.0;
  // Per-AD LSA authentication keys for the defended LS designs; must
  // outlive the factory. Ignored when null or not defended.
  const std::vector<std::uint64_t>* lsa_keys = nullptr;
};

// Node factory for `arch` over (topo, policies). `order` is required for
// "ecma" (and must outlive the factory), ignored otherwise. The returned
// factory is also suitable for Network::set_node_factory (cold restarts).
Network::NodeFactory make_design_factory(const std::string& arch,
                                         const Topology& topo,
                                         const PolicySet& policies,
                                         const OrderResult* order,
                                         const HarnessConfig& config);

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
