#include "topology/generator.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "topology/algos.hpp"
#include "util/check.hpp"

namespace idr {
namespace {

// Every backbone pair the ring leaves unlinked is linked with this
// probability.
constexpr double kBackboneMeshProb = 1.0;
// Link delay bases (ms) by level; jitter() randomizes each +/- 50%.
constexpr double kBackboneDelayMs = 20.0;
constexpr double kRegionalDelayMs = 8.0;
constexpr double kCampusDelayMs = 2.0;

double jitter(double base, Prng& prng) {
  return base * prng.uniform_real(0.5, 1.5);
}

}  // namespace

Topology generate_topology(const GeneratorParams& params, Prng& prng) {
  IDR_CHECK(params.backbones >= 1);
  IDR_CHECK(params.regionals_per_backbone >= 1);
  Topology topo;

  // --- Backbone core ---
  std::vector<AdId> backbones;
  backbones.reserve(params.backbones);
  for (std::uint32_t i = 0; i < params.backbones; ++i) {
    backbones.push_back(topo.add_ad(AdClass::kBackbone, AdRole::kTransit));
  }
  // Ring guarantees a connected core even with kBackboneMeshProb = 0.
  for (std::uint32_t i = 1; i < params.backbones; ++i) {
    topo.add_link(backbones[i - 1], backbones[i], LinkClass::kHierarchical,
                  jitter(kBackboneDelayMs, prng));
  }
  if (params.backbones > 2) {
    topo.add_link(backbones.back(), backbones.front(),
                  LinkClass::kHierarchical,
                  jitter(kBackboneDelayMs, prng));
  }
  for (std::uint32_t i = 0; i < params.backbones; ++i) {
    for (std::uint32_t j = i + 1; j < params.backbones; ++j) {
      if (topo.find_link(backbones[i], backbones[j])) continue;
      if (prng.bernoulli(kBackboneMeshProb)) {
        topo.add_link(backbones[i], backbones[j], LinkClass::kHierarchical,
                      jitter(kBackboneDelayMs, prng));
      }
    }
  }

  // --- Regionals ---
  std::vector<AdId> regionals;
  for (AdId bb : backbones) {
    for (std::uint32_t r = 0; r < params.regionals_per_backbone; ++r) {
      const AdId reg = topo.add_ad(AdClass::kRegional, AdRole::kTransit);
      topo.add_link(bb, reg, LinkClass::kHierarchical,
                    jitter(kRegionalDelayMs, prng));
      regionals.push_back(reg);
    }
  }

  // --- Metros (optional level) ---
  std::vector<AdId> campus_parents;
  if (params.metros_per_regional > 0) {
    for (AdId reg : regionals) {
      for (std::uint32_t m = 0; m < params.metros_per_regional; ++m) {
        const AdId metro = topo.add_ad(AdClass::kMetro, AdRole::kTransit);
        topo.add_link(reg, metro, LinkClass::kHierarchical,
                      jitter(kRegionalDelayMs, prng));
        campus_parents.push_back(metro);
      }
    }
  } else {
    campus_parents = regionals;
  }

  // --- Campuses ---
  std::vector<AdId> campuses;
  for (AdId parent : campus_parents) {
    for (std::uint32_t c = 0; c < params.campuses_per_parent; ++c) {
      AdRole role = AdRole::kStub;
      if (prng.bernoulli(params.hybrid_prob)) role = AdRole::kHybrid;
      const AdId campus = topo.add_ad(AdClass::kCampus, role);
      topo.add_link(parent, campus, LinkClass::kHierarchical,
                    jitter(kCampusDelayMs, prng));
      campuses.push_back(campus);
    }
  }

  // --- Multi-homing: a second hierarchical parent ---
  for (AdId campus : campuses) {
    if (!prng.bernoulli(params.multihome_prob)) continue;
    if (campus_parents.size() < 2) break;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const AdId parent = prng.pick(campus_parents);
      if (topo.find_link(campus, parent)) continue;
      topo.add_link(campus, parent, LinkClass::kHierarchical,
                    jitter(kCampusDelayMs, prng));
      if (topo.ad(campus).role == AdRole::kStub) {
        topo.ad(campus).role = AdRole::kMultiHomed;
      }
      break;
    }
  }

  // --- Lateral links ---
  for (std::size_t i = 0; i < regionals.size(); ++i) {
    for (std::size_t j = i + 1; j < regionals.size(); ++j) {
      if (topo.find_link(regionals[i], regionals[j])) continue;
      if (prng.bernoulli(params.lateral_regional_prob)) {
        topo.add_link(regionals[i], regionals[j], LinkClass::kLateral,
                      jitter(kRegionalDelayMs, prng));
      }
    }
  }
  if (campuses.size() >= 2 && params.lateral_campus_prob > 0.0) {
    // Expected lateral campus links = prob * #campuses; sampled directly
    // rather than over all O(n^2) pairs.
    const auto want = static_cast<std::size_t>(std::llround(
        params.lateral_campus_prob * static_cast<double>(campuses.size())));
    for (std::size_t k = 0; k < want; ++k) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const AdId x = prng.pick(campuses);
        const AdId y = prng.pick(campuses);
        if (x == y || topo.find_link(x, y)) continue;
        topo.add_link(x, y, LinkClass::kLateral,
                      jitter(kCampusDelayMs, prng));
        break;
      }
    }
  }

  // --- Bypass links: campus straight to a backbone ---
  for (AdId campus : campuses) {
    if (!prng.bernoulli(params.bypass_prob)) continue;
    const AdId bb = prng.pick(backbones);
    if (topo.find_link(campus, bb)) continue;
    topo.add_link(campus, bb, LinkClass::kBypass,
                  jitter(kRegionalDelayMs, prng));
  }

  IDR_CHECK_MSG(is_connected(topo), "generator must produce connected graph");
  return topo;
}

Topology generate_topology_of_size(std::uint32_t target_ads, Prng& prng) {
  IDR_CHECK(target_ads >= 8);
  GeneratorParams params;
  // Shape: ~1/16 transit (matches the paper's expectation that transit ADs
  // are ~1e2 out of 1e5, i.e. rare), rest campuses.
  params.backbones = std::max<std::uint32_t>(2, target_ads / 256);
  params.regionals_per_backbone =
      std::max<std::uint32_t>(2, target_ads / (params.backbones * 16));
  const std::uint32_t parents = params.backbones * params.regionals_per_backbone;
  const std::uint32_t remaining =
      target_ads > params.backbones + parents
          ? target_ads - params.backbones - parents
          : parents;
  params.campuses_per_parent = std::max<std::uint32_t>(1, remaining / parents);
  return generate_topology(params, prng);
}

}  // namespace idr
