// E-avail -- route availability vs policy restrictiveness (paper §5.1,
// §5.2, §5.4).
//
// The paper claims hop-by-hop designs leave legal routes unusable ("no
// available route when in fact a legal route exists") while the LS+SR+PT
// design "allows an AD to discover a valid route if one in fact exists".
// This bench sweeps the restrictiveness of transit policies and reports,
// per architecture, the fraction of oracle-confirmed-routable flows for
// which the architecture delivers a legal route.
#include <cstdio>

#include "core/adapters.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

void report() {
  std::printf("== E-avail: route availability vs policy restrictiveness ==\n");
  std::printf("(fraction of flows with a legal route that each design\n"
              " actually serves; averaged over 3 seeds, 48-AD internets)\n\n");

  Table table({"restrictiveness", "ecma", "idrp", "ls-hbh", "orwg", "dv-sr",
               "flows w/ legal route"});
  for (const double restrict_prob : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    double avail[5] = {};
    std::size_t oracle_total = 0;
    constexpr int kSeeds = 3;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ScenarioParams params;
      params.seed = seed;
      params.target_ads = 48;
      params.flow_count = 48;
      params.restrict_prob = restrict_prob;
      params.source_selectivity = 0.5;
      Scenario scenario = make_scenario(params);

      std::unique_ptr<RoutingArchitecture> archs[5];
      archs[0] = std::make_unique<EcmaArchitecture>();
      archs[1] = std::make_unique<IdrpArchitecture>();
      archs[2] = std::make_unique<LshhArchitecture>();
      archs[3] = std::make_unique<OrwgArchitecture>();
      archs[4] = std::make_unique<DvsrArchitecture>();
      for (int i = 0; i < 5; ++i) {
        const ArchEvaluation eval = evaluate_architecture(
            *archs[i], scenario.topo, scenario.policies, scenario.flows);
        avail[i] += eval.availability();
        if (i == 0) oracle_total += eval.oracle_routes;
      }
    }
    table.add_row({Table::num(restrict_prob, 2), Table::num(avail[0] / kSeeds, 3),
                   Table::num(avail[1] / kSeeds, 3),
                   Table::num(avail[2] / kSeeds, 3),
                   Table::num(avail[3] / kSeeds, 3),
                   Table::num(avail[4] / kSeeds, 3),
                   Table::integer(static_cast<long long>(oracle_total))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: orwg stays at 1.0 across the sweep (finds a legal route\n"
      "whenever one exists). idrp/dv-sr fall off as policies become more\n"
      "source-specific (candidate routes not advertised); ecma cannot\n"
      "express the policies, so its \"availability\" counts only routes\n"
      "that happen to be legal. ls-hbh tracks orwg while every AD on the\n"
      "path repeats the computation (see E-state).\n");
}

}  // namespace

int main() {
  report();
  return 0;
}
