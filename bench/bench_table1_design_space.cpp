// Table 1 -- "Design Space for Inter-AD Routing", made executable.
//
// All implementable points of the paper's 2x2x2 design space (algorithm x
// decision location x policy expression), plus the pre-policy baselines
// of §3, run over the same scenario (generated hierarchy + lateral/bypass
// links, provider/customer policies with random source-specific
// restrictions, common flow sample). Columns measure the §5 comparative
// claims: route availability against the ground-truth oracle, illegal
// (policy-violating) routes, loops, convergence traffic, state,
// computation, and per-packet header cost. The four design points the
// paper rejects as impractical are listed with the paper's reasons.
#include <cstdio>

#include "core/adapters.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

void report() {
  ScenarioParams params;
  params.seed = 42;
  params.target_ads = 64;
  params.flow_count = 96;
  params.restrict_prob = 0.35;
  params.source_selectivity = 0.6;
  params.aup_on_first_backbone = true;
  Scenario scenario = make_scenario(params);

  std::printf("== Table 1: design space for inter-AD routing ==\n");
  std::printf(
      "scenario: %zu ADs, %zu links, %zu policy terms, %zu flows\n\n",
      scenario.topo.ad_count(), scenario.topo.link_count(),
      scenario.policies.total_terms(), scenario.flows.size());

  Table table({"architecture", "algorithm", "decision", "policy",
               "avail", "illegal", "looped", "missed", "conv msgs",
               "conv KB", "state", "computations", "hdr bytes"});
  for (auto& arch : make_policy_architectures()) {
    const ArchEvaluation eval = evaluate_architecture(
        *arch, scenario.topo, scenario.policies, scenario.flows);
    const DesignPoint dp = arch->design_point();
    table.add_row({
        arch->name(),
        to_string(dp.algorithm),
        to_string(dp.decision),
        to_string(dp.policy),
        Table::num(eval.availability(), 3),
        Table::integer(static_cast<long long>(eval.illegal)),
        Table::integer(static_cast<long long>(eval.looped)),
        Table::integer(static_cast<long long>(eval.missed)),
        Table::integer(static_cast<long long>(eval.convergence.messages)),
        Table::num(static_cast<double>(eval.convergence.bytes) / 1024.0, 4),
        Table::integer(static_cast<long long>(eval.state)),
        Table::integer(static_cast<long long>(eval.computations)),
        Table::integer(static_cast<long long>(eval.header_bytes)),
    });
  }
  // EGP: admission-checked, not run (the scenario topology is cyclic).
  EgpArchitecture egp;
  table.add_row({"egp", "distance-vector", "hop-by-hop", "none",
                 egp.applicable(scenario.topo) ? "?" : "n/a (cyclic topology)",
                 "-", "-", "-", "-", "-", "-", "-", "-"});
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Design points the paper excludes (§5.5), not implemented by design:\n"
      "  link-state + policy-in-topology (x2): flooding presumes the\n"
      "    unrestricted information flow that topological policy removes;\n"
      "  distance-vector + source-routing + policy-in-topology: source\n"
      "    routing without link state gives the source no information to\n"
      "    exploit (the dv-sr row above implements the §5.5.2 hybrid that\n"
      "    IS discussed: path-vector-informed source routes).\n\n"
      "Reading (paper's conclusions): orwg (link state + source routing +\n"
      "policy terms) attains availability 1.0 with zero illegal routes;\n"
      "hop-by-hop rows miss legal routes (ecma cannot express the\n"
      "source-specific policies at all, so it emits policy-violating\n"
      "routes; idrp is capped by advertised route diversity); the\n"
      "policy-blind baselines violate policy freely.\n");
}

}  // namespace

int main() {
  report();
  return 0;
}
