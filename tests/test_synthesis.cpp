#include <gtest/gtest.h>

#include "core/oracle.hpp"
#include "core/synthesis.hpp"
#include "policy/generator.hpp"
#include "topology/generator.hpp"
#include "topology/figure1.hpp"
#include "util/prng.hpp"

namespace idr {
namespace {

class SynthesisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
  }
  Figure1 fig_;
  PolicySet policies_;
};

TEST_F(SynthesisTest, FindsHierarchicalRoute) {
  GroundTruthView view(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const SynthesisResult result = synthesize_route(view, flow);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.outcome, SynthesisOutcome::kFound);
  EXPECT_EQ(result.path.front(), flow.src);
  EXPECT_EQ(result.path.back(), flow.dst);
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, result.path));
}

TEST_F(SynthesisTest, AdjacentAdsRouteDirectly) {
  GroundTruthView view(fig_.topo, policies_);
  // campus1 and campus2 share a lateral link.
  FlowSpec flow{fig_.campus[1], fig_.campus[2]};
  const SynthesisResult result = synthesize_route(view, flow);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.path.size(), 2u);
}

TEST_F(SynthesisTest, RefusesTransitThroughStub) {
  GroundTruthView view(fig_.topo, policies_);
  // Any route between campuses must go via transit ADs, never through
  // the multi-homed stub even where it would be shorter.
  FlowSpec flow{fig_.campus[2], fig_.campus[5]};
  const SynthesisResult result = synthesize_route(view, flow);
  ASSERT_TRUE(result.found());
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
    EXPECT_TRUE(fig_.topo.can_transit(result.path[i]));
  }
}

TEST_F(SynthesisTest, NoRouteWhenPolicyBlocksEverything) {
  // Strip all transit terms: only adjacent pairs can communicate.
  PolicySet empty(fig_.topo.ad_count());
  GroundTruthView view(fig_.topo, empty);
  FlowSpec far{fig_.campus[0], fig_.campus[6]};
  EXPECT_EQ(synthesize_route(view, far).outcome, SynthesisOutcome::kNoRoute);
  FlowSpec adjacent{fig_.campus[1], fig_.campus[2]};
  EXPECT_TRUE(synthesize_route(view, adjacent).found());
}

TEST_F(SynthesisTest, AvoidListRespected) {
  GroundTruthView view(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[2]};
  SynthesisOptions options;
  const SynthesisResult direct = synthesize_route(view, flow, options);
  ASSERT_TRUE(direct.found());
  // Forbid the first transit AD of the direct route; a detour must be
  // found or none at all -- never a path through the avoided AD.
  options.avoid = {direct.path[1]};
  const SynthesisResult detour = synthesize_route(view, flow, options);
  if (detour.found()) {
    for (AdId ad : detour.path) EXPECT_NE(ad, direct.path[1]);
  }
}

TEST_F(SynthesisTest, HopLimitRespected) {
  GroundTruthView view(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  SynthesisOptions options;
  options.max_hops = 3;  // the real route needs 6 ADs
  EXPECT_FALSE(synthesize_route(view, flow, options).found());
}

TEST_F(SynthesisTest, MinimizeCostFindsCheapest) {
  // Give the lateral regional link's owner a cheap term and verify the
  // search prefers a valid cheaper path over a shorter expensive one.
  GroundTruthView view(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[2], fig_.campus[4]};
  const SynthesisResult result = synthesize_route(view, flow);
  ASSERT_TRUE(result.found());
  const auto ground_cost = policies_.path_cost(fig_.topo, flow, result.path);
  ASSERT_TRUE(ground_cost.has_value());
  EXPECT_EQ(result.cost, *ground_cost);
}

TEST_F(SynthesisTest, BudgetExhaustionReportsUnknown) {
  GroundTruthView view(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  SynthesisOptions options;
  options.expansion_budget = 1;
  const SynthesisResult result = synthesize_route(view, flow, options);
  EXPECT_EQ(result.outcome, SynthesisOutcome::kBudget);
}

TEST_F(SynthesisTest, FirstFoundStopsEarly) {
  GroundTruthView view(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  SynthesisOptions all, first;
  first.first_found = true;
  const SynthesisResult exhaustive = synthesize_route(view, flow, all);
  const SynthesisResult quick = synthesize_route(view, flow, first);
  ASSERT_TRUE(exhaustive.found());
  ASSERT_TRUE(quick.found());
  EXPECT_LE(quick.expansions, exhaustive.expansions);
}

TEST_F(SynthesisTest, PrevNextConstraintsHonored) {
  // Constrain BB-East to accept traffic only from BB-West: a route from
  // Reg-3's customers out through BB-East must then arrive via BB-West.
  PolicySet constrained(fig_.topo.ad_count());
  for (const Ad& ad : fig_.topo.ads()) {
    for (const PolicyTerm& t : policies_.terms(ad.id)) constrained.add_term(t);
  }
  constrained.clear_terms(fig_.backbone_east);
  PolicyTerm t = open_transit_term(fig_.backbone_east);
  t.prev_hops = AdSet::of({fig_.backbone_west});
  constrained.add_term(t);
  GroundTruthView view(fig_.topo, constrained);
  FlowSpec flow{fig_.campus[4], fig_.campus[6]};  // under Reg-2 -> Reg-3
  const SynthesisResult result = synthesize_route(view, flow);
  if (result.found()) {
    for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
      if (result.path[i] == fig_.backbone_east) {
        EXPECT_EQ(result.path[i - 1], fig_.backbone_west);
      }
    }
  }
}

TEST_F(SynthesisTest, DistancesToComputesBfs) {
  GroundTruthView view(fig_.topo, policies_);
  const auto dist = distances_to(view, fig_.backbone_west);
  EXPECT_EQ(dist[fig_.backbone_west.v], 0u);
  EXPECT_EQ(dist[fig_.backbone_east.v], 1u);
  EXPECT_EQ(dist[fig_.regional[0].v], 1u);
  EXPECT_EQ(dist[fig_.campus[0].v], 2u);
}

TEST_F(SynthesisTest, SrcEqualsDstYieldsNothing) {
  GroundTruthView view(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[0]};
  EXPECT_FALSE(synthesize_route(view, flow).found());
}

// The search's per-thread scratch is shared by every search on the
// thread, so an avoid list must leave no mark behind for the next one.
TEST_F(SynthesisTest, AvoidListLeavesNoMarkForTheNextSearch) {
  GroundTruthView view(fig_.topo, policies_);
  const FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const SynthesisResult plain = synthesize_route(view, flow);
  ASSERT_GE(plain.path.size(), 3u);
  SynthesisOptions avoiding;
  avoiding.avoid = {plain.path[1]};
  const SynthesisResult detour = synthesize_route(view, flow, avoiding);
  EXPECT_NE(detour.path, plain.path);
  const SynthesisResult again = synthesize_route(view, flow);
  EXPECT_EQ(again.path, plain.path);
  EXPECT_EQ(again.expansions, plain.expansions);
}

// A view whose neighbor walk starts a second search on the same thread.
class ReentrantView final : public SynthesisView {
 public:
  explicit ReentrantView(const SynthesisView& base) : base_(base) {}
  [[nodiscard]] std::size_t ad_count() const override {
    return base_.ad_count();
  }
  void for_each_neighbor(
      AdId ad, const std::function<void(AdId, std::uint32_t)>& fn)
      const override {
    (void)synthesize_route(base_, FlowSpec{ad, AdId{0}});
    base_.for_each_neighbor(ad, fn);
  }
  [[nodiscard]] std::optional<std::uint32_t> transit_cost(
      AdId ad, const FlowSpec& flow, AdId prev, AdId next) const override {
    return base_.transit_cost(ad, flow, prev, next);
  }

 private:
  const SynthesisView& base_;
};

using SynthesisDeathTest = SynthesisTest;

// Two searches would share one scratch: the nested one aborts instead.
TEST_F(SynthesisDeathTest, NestedSearchOnOneThreadAborts) {
  const GroundTruthView base(fig_.topo, policies_);
  const ReentrantView view(base);
  EXPECT_DEATH(
      (void)synthesize_route(view, FlowSpec{fig_.campus[0], fig_.campus[6]}),
      "re-entered");
}

class OracleTest : public SynthesisTest {};

TEST_F(OracleTest, ExistsMatchesBestRoute) {
  const Oracle oracle(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[7]};
  EXPECT_EQ(oracle.exists(flow), RouteExistence::kExists);
  const SynthesisResult best = oracle.best_route(flow);
  ASSERT_TRUE(best.found());
  EXPECT_TRUE(oracle.is_legal(flow, best.path));
}

TEST_F(OracleTest, HonorsSourcePolicy) {
  policies_.source_policy(fig_.campus[0]).avoid.push_back(
      fig_.backbone_west);
  const Oracle oracle(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const SynthesisResult best = oracle.best_route(flow);
  if (best.found()) {
    for (AdId ad : best.path) EXPECT_NE(ad, fig_.backbone_west);
  }
}

TEST_F(OracleTest, ReportsNoneWhenPartitioned) {
  // Cut every link of campus 0.
  for (const Adjacency& adj : fig_.topo.neighbors(fig_.campus[0])) {
    fig_.topo.set_link_up(adj.link, false);
  }
  const Oracle oracle(fig_.topo, policies_);
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  EXPECT_EQ(oracle.exists(flow), RouteExistence::kNone);
}

// Property check: on random topologies with restricted policies, every
// route the oracle returns must be legal per the independent
// PolicySet::path_is_legal predicate.
TEST(OracleProperty, BestRoutesAlwaysLegal) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Prng prng(seed);
    const Topology topo = generate_topology_of_size(48, prng);
    const PolicySet base = make_provider_customer_policies(topo);
    RestrictionParams params;
    params.restrict_prob = 0.5;
    params.source_selectivity = 0.4;
    const PolicySet policies =
        make_restricted_policies(topo, base, params, prng);
    const Oracle oracle(topo, policies);
    for (int trial = 0; trial < 20; ++trial) {
      FlowSpec flow;
      flow.src = AdId{static_cast<std::uint32_t>(prng.below(topo.ad_count()))};
      flow.dst = AdId{static_cast<std::uint32_t>(prng.below(topo.ad_count()))};
      if (flow.src == flow.dst) continue;
      flow.uci = static_cast<UserClass>(prng.below(kUserClassCount));
      const SynthesisResult best = oracle.best_route(flow);
      if (best.found()) {
        EXPECT_TRUE(policies.path_is_legal(topo, flow, best.path))
            << "seed " << seed << " trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace idr
