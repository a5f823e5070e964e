// Synthetic inter-AD topology generator matching the paper's model (§2.1):
// a backbone / regional / metro / campus hierarchy augmented with lateral
// links (same level) and bypass links (level skipping). The paper argues
// such non-hierarchical links persist for technical, economic and political
// reasons, and that routing must accommodate them; the generator therefore
// parameterizes their density so benchmarks can sweep it.
#pragma once

#include <cstdint>

#include "topology/graph.hpp"
#include "util/prng.hpp"

namespace idr {

// The backbone core is a full mesh, and link delays are per-level bases
// randomized +/- 50%: both fixed in generator.cpp.
struct GeneratorParams {
  // Hierarchy shape.
  std::uint32_t backbones = 2;
  std::uint32_t regionals_per_backbone = 4;
  std::uint32_t metros_per_regional = 0;   // 0: campuses attach to regionals
  std::uint32_t campuses_per_parent = 4;   // per regional (or per metro)

  // Non-hierarchical augmentation (paper Figure 1).
  double lateral_regional_prob = 0.15;  // regional-to-regional shortcut
  double lateral_campus_prob = 0.02;    // campus-to-campus shortcut
  double bypass_prob = 0.03;            // campus directly to a backbone

  // Fraction of campuses that are multi-homed (second hierarchical parent)
  // and fraction of campuses that are hybrid (carry limited transit).
  double multihome_prob = 0.1;
  double hybrid_prob = 0.05;

  [[nodiscard]] std::uint32_t total_ads() const noexcept {
    const std::uint32_t metros =
        backbones * regionals_per_backbone * metros_per_regional;
    const std::uint32_t campus_parents =
        metros_per_regional == 0 ? backbones * regionals_per_backbone : metros;
    return backbones + backbones * regionals_per_backbone + metros +
           campus_parents * campuses_per_parent;
  }
};

// Generates a connected topology; deterministic for a given params+prng
// state. Roles: backbones/regionals/metros are kTransit; campuses are
// kStub, kMultiHomed (if multi-homed) or kHybrid per the probabilities.
Topology generate_topology(const GeneratorParams& params, Prng& prng);

// Convenience: approximately `target_ads` ADs with default shape ratios.
Topology generate_topology_of_size(std::uint32_t target_ads, Prng& prng);

}  // namespace idr
