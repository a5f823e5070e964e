// Policy route synthesis (paper §5.4.1, §6).
//
// Finding a least-cost AD-loop-free path subject to Policy Terms is the
// computationally hard heart of the link-state policy architectures: a
// PT constrains the (previous AD, next AD) transition through its owner,
// which makes this a forbidden-transition path problem (NP-hard in
// general; the paper: "Precomputation of all policy routes in a large
// internet is computationally intractable"). We implement a depth-first
// branch-and-bound over simple paths with:
//   * policy-free BFS distance to the destination as both an admissible
//     cost lower bound and a child-ordering heuristic,
//   * a node-expansion budget so callers can trade completeness for time
//     (the paper's precomputation-pruning heuristics),
//   * deterministic ordering, so every AD running the same search over
//     the same database derives the same route (the consistency
//     requirement of hop-by-hop link state, §5.3).
//
// The search runs against an abstract SynthesisView so the same code
// serves the ground-truth oracle (real Topology + PolicySet) and the
// protocol-eye view (reconstructed from flooded policy LSAs).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "policy/database.hpp"
#include "policy/flow.hpp"
#include "topology/graph.hpp"

namespace idr {

// What a route synthesizer may assume about the internet.
class SynthesisView {
 public:
  virtual ~SynthesisView() = default;

  [[nodiscard]] virtual std::size_t ad_count() const = 0;

  // Enumerate live neighbors of `ad` with the link metric. Every
  // neighbor id is below ad_count().
  virtual void for_each_neighbor(
      AdId ad,
      const std::function<void(AdId neighbor, std::uint32_t metric)>& fn)
      const = 0;

  // Cheapest Policy Term of `ad` permitting `flow` to transit from `prev`
  // to `next`; nullopt if transit is not permitted.
  [[nodiscard]] virtual std::optional<std::uint32_t> transit_cost(
      AdId ad, const FlowSpec& flow, AdId prev, AdId next) const = 0;
};

// Ground truth: the real topology and policy database.
class GroundTruthView final : public SynthesisView {
 public:
  GroundTruthView(const Topology& topo, const PolicySet& policies)
      : topo_(topo), policies_(policies) {}

  [[nodiscard]] std::size_t ad_count() const override {
    return topo_.ad_count();
  }
  void for_each_neighbor(
      AdId ad, const std::function<void(AdId, std::uint32_t)>& fn)
      const override;
  [[nodiscard]] std::optional<std::uint32_t> transit_cost(
      AdId ad, const FlowSpec& flow, AdId prev, AdId next) const override;

 private:
  const Topology& topo_;
  const PolicySet& policies_;
};

struct SynthesisOptions {
  std::uint32_t max_hops = 32;        // max ADs on the path, inclusive
  std::vector<AdId> avoid;            // source route-selection criteria
  bool minimize_cost = true;          // false: minimize AD hops
  std::uint64_t expansion_budget = 2'000'000;  // node expansions
  bool first_found = false;           // stop at the first legal route

  // Links to route around (undirected AD pairs): used for fast Policy
  // Route repair when a data-plane error names a dead link the flooded
  // database does not know about yet.
  std::vector<std::pair<AdId, AdId>> avoid_links;

  // Ablation switches (measured by bench_synthesis_ablation): the
  // destination-distance child ordering / admissible lower bound, and
  // the branch-and-bound cost pruning. Production callers leave both on.
  bool use_distance_heuristic = true;
  bool use_cost_bound = true;
};

enum class SynthesisOutcome : std::uint8_t {
  kFound = 0,       // best route under the options returned
  kNoRoute = 1,     // search exhausted: no legal route exists
  kBudget = 2,      // budget exceeded before exhaustion (result unknown or
                    // possibly sub-optimal if a route was found first)
};

struct SynthesisResult {
  SynthesisOutcome outcome = SynthesisOutcome::kNoRoute;
  std::vector<AdId> path;  // src..dst when a route was found
  std::uint64_t cost = 0;  // PT costs + link metrics along path
  std::uint64_t expansions = 0;

  [[nodiscard]] bool found() const noexcept { return !path.empty(); }
};

// The search works in per-thread scratch sized to the largest view the
// thread has searched, so a call does work in proportion to the part of
// the view it reaches, not to ad_count(). A view's callbacks must not
// call synthesize_route again on the same thread (IDR_CHECK).
SynthesisResult synthesize_route(const SynthesisView& view,
                                 const FlowSpec& flow,
                                 const SynthesisOptions& options = {});

// Policy-free hop distances to `dst` over the view's live links (the
// heuristic the search uses, from the same BFS; exposed for tests and
// benches).
std::vector<std::uint32_t> distances_to(const SynthesisView& view, AdId dst);

}  // namespace idr
