// E-state -- state and computation blowup as policies become
// source-specific (paper §5.2.1, §5.3, §5.4).
//
// The paper's scaling argument: with hop-by-hop routing, source-specific
// policy "effectively replicates the routing table per forwarding entity
// for each QOS, UCI, source combination" (IDRP) or forces "a separate
// spanning tree for each potential source of traffic" (LS hop-by-hop),
// while source routing "relieves transit ADs of this burden". We sweep
// the number of distinct source-specific policy groups that transit ADs
// discriminate among and measure, after routing a fixed flow sample:
//   * IDRP: RIB routes held per AD (state), and the availability cliff
//     when routes_per_dest is capped;
//   * LS-HbH: route computations and per-flow cache entries at transit
//     ADs;
//   * ORWG: route-server syntheses (at sources only) and PG handle state.
#include <cstdio>

#include "core/adapters.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "topology/generator.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

// Policies where every regional discriminates among `groups` disjoint
// source groups (each PT serves one group).
PolicySet make_grouped_policies(const Topology& topo, std::uint32_t groups,
                                Prng& prng) {
  PolicySet policies = make_open_policies(topo);
  if (groups <= 1) return policies;
  // Partition all ADs into groups.
  std::vector<std::vector<AdId>> partition(groups);
  for (const Ad& ad : topo.ads()) {
    partition[prng.below(groups)].push_back(ad.id);
  }
  for (const Ad& ad : topo.ads()) {
    if (ad.role != AdRole::kTransit || ad.cls == AdClass::kBackbone) continue;
    policies.clear_terms(ad.id);
    for (std::uint32_t g = 0; g < groups; ++g) {
      PolicyTerm t = open_transit_term(ad.id, g, /*cost=*/1 + g);
      t.sources = AdSet::of(partition[g]);
      policies.add_term(t);
    }
  }
  return policies;
}

void report() {
  std::printf("== E-state: cost of source-specific policy granularity ==\n");
  std::printf("(48-AD internet, 64-flow sample, per-architecture totals)\n\n");

  Table table({"groups", "idrp RIB routes", "idrp avail(k=4)",
               "idrp avail(k=1)", "lshh computations", "lshh cache",
               "orwg syntheses", "orwg PG handles", "orwg avail"});

  for (const std::uint32_t groups : {1u, 2u, 4u, 8u}) {
    Prng prng(100 + groups);
    Topology topo = generate_topology_of_size(48, prng);
    const PolicySet policies = make_grouped_policies(topo, groups, prng);
    Prng flow_prng(9);
    const auto flows = sample_flows(topo, 64, flow_prng);

    IdrpConfig wide;
    wide.routes_per_dest = 4;
    IdrpConfig narrow;
    narrow.routes_per_dest = 1;
    IdrpArchitecture idrp_wide(wide);
    IdrpArchitecture idrp_narrow(narrow);
    LshhArchitecture lshh;
    OrwgArchitecture orwg;

    const auto e_wide =
        evaluate_architecture(idrp_wide, topo, policies, flows);
    const auto e_narrow =
        evaluate_architecture(idrp_narrow, topo, policies, flows);
    const auto e_lshh = evaluate_architecture(lshh, topo, policies, flows);
    const auto e_orwg = evaluate_architecture(orwg, topo, policies, flows);

    // Drive real Policy Route setups so the PG handle state is populated
    // (evaluate_architecture only traces the control plane).
    for (const FlowSpec& flow : flows) {
      orwg.nodes()[flow.src.v]->send_flow(flow, 1);
    }
    orwg.network().engine().run();
    std::uint64_t pg_handles = 0;
    for (OrwgNode* node : orwg.nodes()) {
      pg_handles += node->gateway().installed();
    }
    table.add_row({
        Table::integer(groups),
        Table::integer(static_cast<long long>(e_wide.state)),
        Table::num(e_wide.availability(), 3),
        Table::num(e_narrow.availability(), 3),
        Table::integer(static_cast<long long>(e_lshh.computations)),
        Table::integer(static_cast<long long>(e_lshh.state)),
        Table::integer(static_cast<long long>(e_orwg.computations)),
        Table::integer(static_cast<long long>(pg_handles)),
        Table::num(e_orwg.availability(), 3),
    });
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: IDRP's RIB grows with policy groups and its availability\n"
      "collapses when the multi-route cap (k=1) cannot represent the\n"
      "policy diversity -- the paper's \"does not scale as policies become\n"
      "more fine grained\". LS-HbH availability holds but transit ADs pay\n"
      "in per-source computations/cache. ORWG keeps availability at 1.0\n"
      "with computation only at sources.\n");
}

}  // namespace

int main() {
  report();
  return 0;
}
