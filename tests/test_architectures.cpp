#include <gtest/gtest.h>

#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/design_harness.hpp"
#include "core/metrics.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "policy/generator.hpp"
#include "topology/figure1.hpp"

namespace idr {
namespace {

class ArchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
  }
  Figure1 fig_;
  PolicySet policies_;
};

TEST_F(ArchTest, DesignPointsCoverTable1) {
  const auto archs = make_policy_architectures();
  ASSERT_EQ(archs.size(), 7u);
  // The four §5 design points must all be present.
  bool dv_hbh_topology = false, dv_hbh_terms = false;
  bool ls_hbh_terms = false, ls_sr_terms = false, dv_sr_terms = false;
  for (const auto& arch : archs) {
    const DesignPoint dp = arch->design_point();
    if (dp.algorithm == Algorithm::kDistanceVector &&
        dp.decision == Decision::kHopByHop &&
        dp.policy == PolicyExpression::kTopology) {
      dv_hbh_topology = true;
    }
    if (dp.algorithm == Algorithm::kDistanceVector &&
        dp.decision == Decision::kHopByHop &&
        dp.policy == PolicyExpression::kPolicyTerms) {
      dv_hbh_terms = true;
    }
    if (dp.algorithm == Algorithm::kLinkState &&
        dp.decision == Decision::kHopByHop &&
        dp.policy == PolicyExpression::kPolicyTerms) {
      ls_hbh_terms = true;
    }
    if (dp.algorithm == Algorithm::kLinkState &&
        dp.decision == Decision::kSourceRouting &&
        dp.policy == PolicyExpression::kPolicyTerms) {
      ls_sr_terms = true;
    }
    if (dp.algorithm == Algorithm::kDistanceVector &&
        dp.decision == Decision::kSourceRouting) {
      dv_sr_terms = true;
    }
  }
  EXPECT_TRUE(dv_hbh_topology);
  EXPECT_TRUE(dv_hbh_terms);
  EXPECT_TRUE(ls_hbh_terms);
  EXPECT_TRUE(ls_sr_terms);
  EXPECT_TRUE(dv_sr_terms);
}

TEST_F(ArchTest, EveryArchitectureRoutesOpenFigure1) {
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  for (auto& arch : make_policy_architectures()) {
    arch->build(fig_.topo, policies_);
    const Probe trace = arch->trace(flow);
    EXPECT_NE(trace.outcome, ProbeOutcome::kLooped) << arch->name();
    ASSERT_EQ(trace.outcome, ProbeOutcome::kDelivered) << arch->name();
    EXPECT_EQ(trace.path.front(), flow.src) << arch->name();
    EXPECT_EQ(trace.path.back(), flow.dst) << arch->name();
  }
}

TEST_F(ArchTest, PolicyAwareArchitecturesProduceLegalRoutes) {
  FlowSpec flow{fig_.campus[1], fig_.campus[5]};
  for (auto& arch : make_policy_architectures()) {
    const PolicyExpression pe = arch->design_point().policy;
    if (pe == PolicyExpression::kNone) continue;
    arch->build(fig_.topo, policies_);
    const Probe trace = arch->trace(flow);
    ASSERT_EQ(trace.outcome, ProbeOutcome::kDelivered) << arch->name();
    EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, trace.path))
        << arch->name();
  }
}

TEST_F(ArchTest, EgpRejectsCyclicTopology) {
  EgpArchitecture egp;
  EXPECT_FALSE(egp.applicable(fig_.topo));
}

TEST_F(ArchTest, EgpRunsOnTree) {
  Topology tree;
  const AdId root = tree.add_ad(AdClass::kBackbone, AdRole::kTransit);
  const AdId mid = tree.add_ad(AdClass::kRegional, AdRole::kTransit);
  const AdId leaf_a = tree.add_ad(AdClass::kCampus, AdRole::kStub);
  const AdId leaf_b = tree.add_ad(AdClass::kCampus, AdRole::kStub);
  tree.add_link(root, mid, LinkClass::kHierarchical);
  tree.add_link(mid, leaf_a, LinkClass::kHierarchical);
  tree.add_link(root, leaf_b, LinkClass::kHierarchical);
  PolicySet policies = make_open_policies(tree);
  EgpArchitecture egp;
  ASSERT_TRUE(egp.applicable(tree));
  egp.build(tree, policies);
  const Probe trace = egp.trace(FlowSpec{leaf_a, leaf_b});
  ASSERT_EQ(trace.outcome, ProbeOutcome::kDelivered);
  EXPECT_EQ(trace.path.size(), 4u);
}

TEST_F(ArchTest, PerturbReportsReconvergenceCost) {
  IdrpArchitecture idrp;
  idrp.build(fig_.topo, policies_);
  const auto initial = idrp.initial_convergence();
  EXPECT_GT(initial.messages, 0u);
  const LinkId cut =
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east);
  // NOTE: perturb applies to the architecture's private topology copy.
  const ConvergenceStats recon = idrp.perturb(cut, false);
  EXPECT_GT(recon.messages, 0u);
  // The architecture's own copy changed, not the scenario's.
  EXPECT_TRUE(fig_.topo.link(cut).up);
  EXPECT_FALSE(idrp.topo().link(cut).up);
}

TEST_F(ArchTest, StateAndHeaderQueriesWork) {
  for (auto& arch : make_policy_architectures()) {
    arch->build(fig_.topo, policies_);
    // Lazily-computed FIBs (ls-ospf) populate on first use.
    (void)arch->trace(FlowSpec{fig_.campus[0], fig_.campus[6]});
    EXPECT_GT(arch->state_entries(), 0u) << arch->name();
    EXPECT_GT(arch->header_bytes(5), 0u) << arch->name();
  }
  // Source-route headers grow with path length; handle-based ORWG ones
  // do not.
  DvsrArchitecture dvsr;
  OrwgArchitecture orwg;
  EXPECT_GT(dvsr.header_bytes(10), dvsr.header_bytes(3));
  EXPECT_EQ(orwg.header_bytes(10), orwg.header_bytes(3));
}

TEST(Evaluate, ComparesAgainstOracleOnScenario) {
  ScenarioParams params;
  params.seed = 3;
  params.target_ads = 40;
  params.flow_count = 24;
  Scenario scenario = make_scenario(params);

  OrwgArchitecture orwg;
  const ArchEvaluation eval = evaluate_architecture(
      orwg, scenario.topo, scenario.policies, scenario.flows);
  EXPECT_EQ(eval.flows, scenario.flows.size());
  EXPECT_GT(eval.oracle_routes, 0u);
  // The paper's headline: LS + SR + PT finds a legal route whenever one
  // exists (within budget), and never produces an illegal one.
  EXPECT_EQ(eval.legal, eval.oracle_routes);
  EXPECT_EQ(eval.illegal, 0u);
  EXPECT_EQ(eval.missed, 0u);
  EXPECT_EQ(eval.looped, 0u);
  EXPECT_DOUBLE_EQ(eval.availability(), 1.0);
}

TEST(Evaluate, PolicyBlindBaselineViolatesPolicy) {
  ScenarioParams params;
  params.seed = 4;
  params.target_ads = 40;
  params.flow_count = 32;
  params.restrict_prob = 0.5;
  Scenario scenario = make_scenario(params);

  DvArchitecture dv;
  const ArchEvaluation eval = evaluate_architecture(
      dv, scenario.topo, scenario.policies, scenario.flows);
  // RIP-style routing ignores policy entirely: it forwards along
  // shortest paths straight through ADs that forbid the traffic.
  EXPECT_GT(eval.illegal, 0u);
}

TEST(Scenario, DeterministicForSeed) {
  ScenarioParams params;
  params.seed = 9;
  const Scenario a = make_scenario(params);
  const Scenario b = make_scenario(params);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i], b.flows[i]);
  }
  EXPECT_EQ(a.topo.link_count(), b.topo.link_count());
  EXPECT_EQ(a.policies.total_terms(), b.policies.total_terms());
}

TEST(Scenario, FlowsUseEndSystemAds) {
  ScenarioParams params;
  params.seed = 10;
  const Scenario scenario = make_scenario(params);
  for (const FlowSpec& flow : scenario.flows) {
    EXPECT_NE(scenario.topo.ad(flow.src).role, AdRole::kTransit);
    EXPECT_NE(scenario.topo.ad(flow.dst).role, AdRole::kTransit);
    EXPECT_NE(flow.src, flow.dst);
  }
}

// Cross-commit pins of the Table-1 analysis path, recorded on c7115b6 in
// the style of tests/pins.hpp: no other test checks a Table-1 number
// exactly, so these hold the design-space scenario and the Figure-1
// reconvergence cut to the recorded run. A failing pin prints the actual
// value in table syntax.

// One evaluate_architecture() run: counter fingerprint after build,
// cold-start convergence cost, flow outcomes, state and computations.
struct EvalPin {
  std::uint64_t fingerprint = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::size_t found = 0;
  std::size_t legal = 0;
  std::size_t illegal = 0;
  std::size_t looped = 0;
  std::size_t missed = 0;
  std::size_t state = 0;
  std::uint64_t computations = 0;
  friend bool operator==(const EvalPin&, const EvalPin&) = default;
};

std::ostream& operator<<(std::ostream& os, const EvalPin& pin) {
  return os << "{0x" << std::hex << pin.fingerprint << std::dec << "ull, "
            << pin.msgs << ", " << pin.bytes << ", " << pin.events << ", "
            << pin.found << ", " << pin.legal << ", " << pin.illegal << ", "
            << pin.looped << ", " << pin.missed << ", " << pin.state << ", "
            << pin.computations << "}";
}

// One perturb() run: reconvergence messages, bytes and simulated time.
struct ReconvergePin {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double time_ms = 0.0;
  friend bool operator==(const ReconvergePin&, const ReconvergePin&) = default;
};

std::ostream& operator<<(std::ostream& os, const ReconvergePin& pin) {
  return os << "{" << pin.msgs << ", " << pin.bytes << ", "
            << std::setprecision(std::numeric_limits<double>::max_digits10)
            << pin.time_ms << "}";
}

// bench_table1_design_space's scenario.
const std::map<std::string, EvalPin> kTable1Pins = {
    {"dv-rip",
     {0x6fe313364ba0bab7ull, 12148, 1749252, 12148, 96, 47, 49, 0, 0, 3844, 0}},
    {"ls-ospf",
     {0xfe81c0123401c267ull, 5270, 206890, 5270, 96, 60, 36, 0, 0, 12932, 212}},
    {"ecma",
     {0x4ce25fd03ca413cdull, 9114, 10388942, 9114, 96, 75, 21, 0, 0, 16328, 0}},
    {"idrp",
     {0x7b2907eaedb206d5ull, 5717, 36106272, 5717, 67, 64, 3, 0, 11, 20171, 0}},
    {"ls-hbh",
     {0xfd32fb2631309d59ull, 5270, 362780, 5270, 75, 75, 0, 0, 0, 4120, 276}},
    {"orwg",
     {0xfdbc2fdcdd33b313ull, 5270, 324530, 5270, 75, 75, 0, 0, 0, 3919, 96}},
    {"dv-sr",
     {0x7b2907eaedb206d5ull, 5717, 36106272, 5717, 64, 64, 0, 0, 11, 20171, 0}}};

// bench_convergence's Figure-1 cut (backbone west-east, open policies).
const std::map<std::string, ReconvergePin> kFigure1CutPins = {
    {"ecma", {27, 18385, 22}},
    {"idrp", {32, 12334, 33}},
    {"ls-hbh", {42, 2982, 39}},
    {"orwg", {42, 2688, 39}}};

TEST(Table1Pins, DesignSpaceScenarioEvaluatesAsRecorded) {
  ScenarioParams params;
  params.seed = 42;
  params.target_ads = 64;
  params.flow_count = 96;
  params.restrict_prob = 0.35;
  params.source_selectivity = 0.6;
  params.aup_on_first_backbone = true;
  const Scenario scenario = make_scenario(params);
  for (auto& arch : make_policy_architectures()) {
    SCOPED_TRACE(arch->name());
    arch->build(scenario.topo, scenario.policies);
    const std::uint64_t fingerprint =
        counter_fingerprint(arch->network(), arch->topo());
    const ArchEvaluation eval = evaluate_architecture(
        *arch, scenario.topo, scenario.policies, scenario.flows);
    const EvalPin got{fingerprint,
                      eval.convergence.messages,
                      eval.convergence.bytes,
                      eval.convergence.events,
                      eval.found,
                      eval.legal,
                      eval.illegal,
                      eval.looped,
                      eval.missed,
                      eval.state,
                      eval.computations};
    EXPECT_EQ(got, kTable1Pins.at(arch->name()));
  }
}

TEST(Table1Pins, Figure1CutReconvergesAsRecorded) {
  const Figure1 fig = build_figure1();
  const PolicySet policies = make_open_policies(fig.topo);
  const LinkId cut =
      *fig.topo.find_link(fig.backbone_west, fig.backbone_east);
  std::vector<std::unique_ptr<RoutingArchitecture>> archs;
  archs.push_back(std::make_unique<EcmaArchitecture>());
  archs.push_back(std::make_unique<IdrpArchitecture>());
  archs.push_back(std::make_unique<LshhArchitecture>());
  archs.push_back(std::make_unique<OrwgArchitecture>());
  for (auto& arch : archs) {
    SCOPED_TRACE(arch->name());
    arch->build(fig.topo, policies);
    const ConvergenceStats recon = arch->perturb(cut, false);
    const ReconvergePin got{recon.messages, recon.bytes, recon.time_ms};
    EXPECT_EQ(got, kFigure1CutPins.at(arch->name()));
  }
}

// walk_probe finds a loop by scanning the path for the next hop: a jump
// back to any earlier hop, near the source or far along a long path, is a
// loop, and the probe keeps the hops it took. The walk runs along a
// 200-AD chain and turns back to `back` when it reaches `turn`.
TEST(WalkProbe, FindsLoopsAnywhereOnTheWayAndKeepsTheHops) {
  Topology chain;
  std::vector<AdId> ads;
  for (int i = 0; i < 200; ++i) {
    ads.push_back(chain.add_ad(AdClass::kCampus, AdRole::kTransit));
  }
  for (std::size_t i = 0; i + 1 < ads.size(); ++i) {
    chain.add_link(ads[i], ads[i + 1], LinkClass::kHierarchical);
  }
  Engine engine;
  Network net(engine, chain);
  const auto walk = [&](std::size_t dst, std::size_t turn, std::size_t back) {
    return walk_probe(net, chain, ads[0], ads[dst],
                      [&](AdId cur, const std::vector<AdId>&) {
                        return std::optional<AdId>(
                            cur == ads[turn] ? ads[back] : ads[cur.v + 1]);
                      });
  };
  struct Case {
    std::size_t dst, turn, back;
    ProbeOutcome outcome;
    std::size_t hops_kept;
  };
  const Case cases[] = {
      {150, 199, 0, ProbeOutcome::kDelivered, 151},  // 150 hops, no loop
      {199, 2, 0, ProbeOutcome::kLooped, 3},         // short loop
      {199, 64, 10, ProbeOutcome::kLooped, 65},      // back into the path
      {199, 120, 0, ProbeOutcome::kLooped, 121},     // back to the source
      {199, 120, 119, ProbeOutcome::kLooped, 121},   // back one hop
      {199, 120, 120, ProbeOutcome::kLooped, 121},   // to itself
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "turn " << c.turn << " back "
                                      << c.back);
    const Probe p = walk(c.dst, c.turn, c.back);
    EXPECT_EQ(p.outcome, c.outcome);
    ASSERT_EQ(p.path.size(), c.hops_kept);
    for (std::size_t i = 0; i < p.path.size(); ++i) {
      EXPECT_EQ(p.path[i], ads[i]);
    }
  }
}

}  // namespace
}  // namespace idr
