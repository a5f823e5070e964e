// E-abstraction -- the cost/benefit of routing at a coarser granularity
// (paper §4.1: "As with any abstraction or hierarchical routing, some
// optimality may be lost. Nonetheless the benefits of this abstraction
// far outweigh its costs"; §5.1.1 notes grouping ADs into a hierarchy as
// the scaling path).
//
// Clusters ADs by hierarchy, aggregates their advertisements
// optimistically, and compares two-level (cluster route + corridor
// expansion, flat fallback) against flat synthesis: search work saved,
// advertisement footprint saved, stretch paid, and how often optimism
// forces the fallback.
#include <cstdio>

#include "cluster/aggregate.hpp"
#include "cluster/hierarchical.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

void report() {
  std::printf("== E-abstraction: cluster-granularity routing ==\n\n");
  Table table({"ADs", "clusters", "advert footprint", "expansions",
               "mean stretch", "fallbacks", "routes found"});

  for (const std::uint32_t ads : {64u, 128u, 256u}) {
    ScenarioParams params;
    params.seed = 13;
    params.target_ads = ads;
    params.flow_count = 48;
    params.restrict_prob = 0.3;
    Scenario scenario = make_scenario(params);
    const Clustering clustering = cluster_by_hierarchy(scenario.topo);
    const ClusterGraph graph =
        aggregate(scenario.topo, scenario.policies, clustering);
    const AbstractionFootprint fp =
        footprint(scenario.topo, scenario.policies, graph);
    const Oracle oracle(scenario.topo, scenario.policies);

    std::uint64_t flat_expansions = 0;
    std::uint64_t hier_expansions = 0;
    std::size_t fallbacks = 0;
    std::size_t found = 0;
    double stretch_sum = 0.0;
    std::size_t stretch_n = 0;
    for (const FlowSpec& flow : scenario.flows) {
      const SourcePolicy& sp = scenario.policies.source_policy(flow.src);
      SynthesisOptions options;
      options.max_hops = sp.max_hops;
      options.avoid = sp.avoid;
      options.minimize_cost = sp.prefer_min_cost;
      const HierarchicalResult hier = synthesize_hierarchical(
          scenario.topo, scenario.policies, clustering, graph, flow,
          options);
      const SynthesisResult flat = oracle.best_route(flow);
      flat_expansions += flat.expansions;
      hier_expansions += hier.total_expansions();
      if (hier.used_fallback) ++fallbacks;
      if (hier.result.found()) {
        ++found;
        if (flat.found() && flat.cost > 0) {
          stretch_sum += static_cast<double>(hier.result.cost) /
                         static_cast<double>(flat.cost);
          ++stretch_n;
        }
      }
    }

    char footprint_cell[64];
    std::snprintf(footprint_cell, sizeof footprint_cell,
                  "%zu+%zu+%zu vs %zu+%zu+%zu", fp.cluster_nodes,
                  fp.cluster_links, fp.cluster_terms, fp.flat_nodes,
                  fp.flat_links, fp.flat_terms);
    char exp_cell[64];
    std::snprintf(exp_cell, sizeof exp_cell, "%llu vs %llu flat",
                  static_cast<unsigned long long>(hier_expansions),
                  static_cast<unsigned long long>(flat_expansions));
    table.add_row({Table::integer(ads),
                   Table::integer(clustering.count()),
                   footprint_cell,
                   exp_cell,
                   stretch_n ? Table::num(stretch_sum /
                                              static_cast<double>(stretch_n),
                                          4)
                             : "n/a",
                   Table::integer(static_cast<long long>(fallbacks)),
                   Table::integer(static_cast<long long>(found))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: the benefit is the advertised database -- an order of\n"
      "magnitude fewer nodes/links/terms to flood, store and keep fresh\n"
      "(the §2.2 scale problem). The cost is measured too: stretch stays\n"
      "within ~1%% of optimal, no routes are lost (corridor failures fall\n"
      "back to flat search; after one-hop corridor fattening that is\n"
      "rare), and the two-level search does modestly more expansion work\n"
      "than guided flat search on these sparse hierarchies. §4.1's \"some\n"
      "optimality may be lost [but] benefits far outweigh costs\",\n"
      "quantified one level up from ADs.\n");
}

}  // namespace

int main() {
  report();
  return 0;
}
