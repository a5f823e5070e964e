#include "core/metrics.hpp"

#include <cmath>

namespace idr {

ArchEvaluation evaluate_architecture(RoutingArchitecture& arch,
                                     const Topology& topo,
                                     const PolicySet& policies,
                                     std::span<const FlowSpec> flows) {
  ArchEvaluation eval;
  eval.arch = arch.name();
  eval.design_point = arch.design_point().describe();
  eval.flows = flows.size();

  if (!arch.applicable(topo)) {
    eval.applicable = false;
    return eval;
  }
  if (!arch.built()) arch.build(topo, policies);
  eval.convergence = arch.initial_convergence();

  const Oracle oracle(topo, policies);
  double stretch_sum = 0.0;
  std::size_t stretch_count = 0;
  double path_len_sum = 0.0;

  for (const FlowSpec& flow : flows) {
    const SynthesisResult best = oracle.best_route(flow);
    const bool oracle_has = best.found();
    if (oracle_has) ++eval.oracle_routes;

    const Probe probe = arch.trace(flow);
    if (probe.outcome == ProbeOutcome::kLooped) {
      ++eval.looped;
      continue;
    }
    if (probe.outcome != ProbeOutcome::kDelivered) {
      if (oracle_has) ++eval.missed;
      continue;
    }
    ++eval.found;
    path_len_sum += static_cast<double>(probe.path.size());
    const auto cost = policies.path_cost(topo, flow, probe.path);
    if (cost.has_value()) {
      ++eval.legal;
      if (oracle_has && best.cost > 0) {
        stretch_sum += static_cast<double>(*cost) /
                       static_cast<double>(best.cost);
        ++stretch_count;
      }
    } else {
      ++eval.illegal;
    }
  }

  eval.mean_stretch =
      stretch_count == 0 ? 0.0
                         : stretch_sum / static_cast<double>(stretch_count);
  eval.mean_path_len =
      eval.found == 0 ? 0.0
                      : path_len_sum / static_cast<double>(eval.found);
  eval.state = arch.state_entries();
  eval.computations = arch.computations();
  eval.header_bytes = arch.header_bytes(
      static_cast<std::size_t>(std::lround(eval.mean_path_len)));
  return eval;
}

}  // namespace idr
