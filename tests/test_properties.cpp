// Property-based sweeps over randomized scenarios (parameterized by
// seed): the invariants the paper's argument rests on must hold on every
// generated internet, not just on Figure 1.
#include <gtest/gtest.h>

#include <set>

#include "core/adapters.hpp"
#include "core/metrics.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "topology/generator.hpp"
#include "proto/ecma/partial_order.hpp"

namespace idr {
namespace {

struct SweepParam {
  std::uint64_t seed;
  std::uint32_t ads;
  double restrict_prob;
};

std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
  return os << "seed" << p.seed << "_ads" << p.ads << "_r"
            << static_cast<int>(p.restrict_prob * 100);
}

class ScenarioSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    const SweepParam& p = GetParam();
    ScenarioParams params;
    params.seed = p.seed;
    params.target_ads = p.ads;
    params.restrict_prob = p.restrict_prob;
    params.flow_count = 20;
    scenario_ = make_scenario(params);
  }
  Scenario scenario_;
};

// The paper's central claim, as an invariant: the LS+SR+PT architecture
// finds a legal route exactly when one exists, and never emits an
// illegal or looping route.
TEST_P(ScenarioSweep, OrwgIsCompleteAndSound) {
  OrwgArchitecture orwg;
  const ArchEvaluation eval = evaluate_architecture(
      orwg, scenario_.topo, scenario_.policies, scenario_.flows);
  EXPECT_EQ(eval.legal, eval.oracle_routes);
  EXPECT_EQ(eval.illegal, 0u);
  EXPECT_EQ(eval.missed, 0u);
  EXPECT_EQ(eval.looped, 0u);
}

// Hop-by-hop architectures can be *sound but incomplete*: they must not
// loop, and LSHH must never emit an illegal route (it computes from full
// policy knowledge), but both may miss legal routes.
TEST_P(ScenarioSweep, LshhIsSoundAndLoopFree) {
  LshhArchitecture lshh;
  const ArchEvaluation eval = evaluate_architecture(
      lshh, scenario_.topo, scenario_.policies, scenario_.flows);
  EXPECT_EQ(eval.looped, 0u);
  EXPECT_EQ(eval.illegal, 0u);
}

TEST_P(ScenarioSweep, IdrpNeverLoops) {
  IdrpArchitecture idrp;
  const ArchEvaluation eval = evaluate_architecture(
      idrp, scenario_.topo, scenario_.policies, scenario_.flows);
  EXPECT_EQ(eval.looped, 0u);
  // Availability can be below 1.0 (the paper's complaint), never above.
  EXPECT_LE(eval.legal, eval.oracle_routes);
}

TEST_P(ScenarioSweep, EcmaRoutesAreValleyFreeAndLoopFree) {
  EcmaArchitecture ecma;
  ecma.build(scenario_.topo, scenario_.policies);
  const PartialOrder& order = ecma.order_result().order;
  for (const FlowSpec& flow : scenario_.flows) {
    const Probe trace = ecma.trace(flow);
    EXPECT_NE(trace.outcome, ProbeOutcome::kLooped);
    if (trace.outcome != ProbeOutcome::kDelivered) continue;
    // Up*down* shape.
    bool went_down = false;
    for (std::size_t i = 0; i + 1 < trace.path.size(); ++i) {
      const bool up = order.is_up(trace.path[i], trace.path[i + 1]);
      if (up) {
        EXPECT_FALSE(went_down);
      }
      if (!up) went_down = true;
    }
    // Loop-freedom double check.
    std::set<std::uint32_t> seen;
    for (AdId ad : trace.path) EXPECT_TRUE(seen.insert(ad.v).second);
  }
}

TEST_P(ScenarioSweep, DvsrSourceRoutesAreLoopFreeAndCandidateBound) {
  DvsrArchitecture dvsr;
  const ArchEvaluation eval = evaluate_architecture(
      dvsr, scenario_.topo, scenario_.policies, scenario_.flows);
  EXPECT_EQ(eval.looped, 0u);
  // §5.5.2: without link state, the source cannot exceed what the path
  // vector advertised.
  EXPECT_LE(eval.legal, eval.oracle_routes);
}

// Oracle self-consistency: every best route it emits passes the
// independent legality predicate.
TEST_P(ScenarioSweep, OracleRoutesAreLegal) {
  const Oracle oracle(scenario_.topo, scenario_.policies);
  for (const FlowSpec& flow : scenario_.flows) {
    const SynthesisResult best = oracle.best_route(flow);
    if (best.found()) {
      EXPECT_TRUE(oracle.is_legal(flow, best.path));
    }
  }
}

// The sweeps above compare architectures against oracle.best_route()'s
// found()/not-found answer, which silently degrades to "no route" if the
// expansion budget runs out mid-search. Assert the tri-state explicitly:
// on every sweep scenario (ads up to 96, restrict_prob up to 0.9) the
// default budget must fully resolve every flow to kExists or kNone, so
// the ground truth the other tests lean on is never a budget guess.
TEST_P(ScenarioSweep, OracleBudgetResolvesEveryFlow) {
  const Oracle oracle(scenario_.topo, scenario_.policies);
  for (const FlowSpec& flow : scenario_.flows) {
    EXPECT_NE(oracle.exists(flow), RouteExistence::kUnknown)
        << "oracle budget exhausted: raise the default expansion budget";
    const SynthesisResult best = oracle.best_route(flow);
    EXPECT_NE(best.outcome, SynthesisOutcome::kBudget)
        << "best_route() hit its budget; found()/missed counts in this "
           "sweep would be guesses";
  }
}

// Availability ordering (statistical form of Table 1's qualitative
// ranking): ORWG >= LSHH and ORWG >= IDRP on every scenario.
TEST_P(ScenarioSweep, AvailabilityOrderingHolds) {
  OrwgArchitecture orwg;
  LshhArchitecture lshh;
  IdrpArchitecture idrp;
  const auto e_orwg = evaluate_architecture(orwg, scenario_.topo,
                                            scenario_.policies,
                                            scenario_.flows);
  const auto e_lshh = evaluate_architecture(lshh, scenario_.topo,
                                            scenario_.policies,
                                            scenario_.flows);
  const auto e_idrp = evaluate_architecture(idrp, scenario_.topo,
                                            scenario_.policies,
                                            scenario_.flows);
  EXPECT_GE(e_orwg.legal, e_lshh.legal);
  EXPECT_GE(e_orwg.legal, e_idrp.legal);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ScenarioSweep,
    ::testing::Values(SweepParam{1, 32, 0.0}, SweepParam{2, 32, 0.3},
                      SweepParam{3, 48, 0.3}, SweepParam{4, 48, 0.6},
                      SweepParam{5, 64, 0.3}, SweepParam{6, 64, 0.6},
                      SweepParam{7, 24, 0.9}, SweepParam{8, 96, 0.3}));

// Churn: random link failures and repairs. After the network quiesces,
// the architectural invariants must hold again on the surviving
// topology -- the paper's §2.2 requirement that protocols be "somewhat
// adaptive to changes in inter-AD topology".
class ChurnSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnSweep, InvariantsHoldAfterChurn) {
  ScenarioParams params;
  params.seed = GetParam();
  params.target_ads = 40;
  params.flow_count = 16;
  params.restrict_prob = 0.3;
  Scenario scenario = make_scenario(params);

  OrwgArchitecture orwg;
  orwg.build(scenario.topo, scenario.policies);
  LshhArchitecture lshh;
  lshh.build(scenario.topo, scenario.policies);

  // The same failure/repair schedule hits both architectures' private
  // topologies.
  Prng prng(GetParam() ^ 0xc0ffee);
  for (int i = 0; i < 12; ++i) {
    const LinkId link{
        static_cast<std::uint32_t>(prng.below(scenario.topo.link_count()))};
    const bool up = i % 3 == 2;  // mostly failures, some repairs
    orwg.perturb(link, up);
    lshh.perturb(link, up);
  }

  // Ground truth over the surviving topology (the architecture's copy).
  const Oracle oracle(orwg.topo(), scenario.policies);
  for (const FlowSpec& flow : scenario.flows) {
    const SynthesisResult best = oracle.best_route(flow);
    const Probe trace = orwg.trace(flow);
    EXPECT_NE(trace.outcome, ProbeOutcome::kLooped);
    const bool delivered = trace.outcome == ProbeOutcome::kDelivered;
    EXPECT_EQ(delivered, best.found()) << "seed " << GetParam();
    if (delivered) {
      EXPECT_TRUE(scenario.policies.path_is_legal(orwg.topo(), flow,
                                                  trace.path));
    }
    const Probe hbh = lshh.trace(flow);
    EXPECT_NE(hbh.outcome, ProbeOutcome::kLooped);
    if (hbh.outcome == ProbeOutcome::kDelivered) {
      EXPECT_TRUE(
          scenario.policies.path_is_legal(lshh.topo(), flow, hbh.path));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

// Partial-order properties over random constraint sets.
class OrderSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderSweep, NegotiationAlwaysTerminatesWithValidOrder) {
  Prng prng(GetParam());
  const Topology topo = generate_topology_of_size(48, prng);
  // Random (frequently conflicting) policy constraints between transits.
  std::vector<AdId> transits;
  for (const Ad& ad : topo.ads()) {
    if (ad.role == AdRole::kTransit) transits.push_back(ad.id);
  }
  std::vector<OrderConstraint> policy;
  for (int i = 0; i < 40; ++i) {
    const AdId a = prng.pick(transits);
    const AdId b = prng.pick(transits);
    if (a == b) continue;
    policy.push_back(OrderConstraint{a, b});
  }
  const OrderResult result = compute_partial_order(topo, policy);
  ASSERT_TRUE(result.ok);
  // The surviving constraints are all satisfied by the ordering.
  std::set<std::pair<std::uint32_t, std::uint32_t>> dropped;
  for (const OrderConstraint& c : result.dropped) {
    dropped.insert({c.above.v, c.below.v});
  }
  for (const OrderConstraint& c : policy) {
    if (dropped.contains({c.above.v, c.below.v})) continue;
    EXPECT_LT(result.order.rank(c.above), result.order.rank(c.below));
  }
  // Structural constraints are never dropped.
  for (const OrderConstraint& c : result.dropped) {
    EXPECT_FALSE(c.structural);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderSweep, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace idr
