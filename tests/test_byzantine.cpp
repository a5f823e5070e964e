// Byzantine-AD fault model: receiver-side defenses, containment, and the
// policy-compliance auditor.
//
// The ECMA tests pin down the smallest interesting attack end to end: a
// regional AD "leaks" by stamping every advertisement down-only, which
// lets an above neighbor install a down-then-up route the up*down* rule
// forbids. Undefended receivers accept the lie; with the receiver-side
// partial-order check armed, the claim is provably impossible (below the
// sender's static down-links-only distance) and is rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "core/chaos.hpp"
#include "core/design_harness.hpp"
#include "pins.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"

namespace idr {
namespace {

// --- ECMA receiver-side up/down enforcement ---------------------------

struct EcmaLeakRun {
  Figure1 fig;
  OrderResult order;
  Engine engine;
  std::unique_ptr<Network> net;
  std::vector<EcmaNode*> nodes;
};

// Reg-2 route-leaks from t=0: every advertisement it sends claims
// down-only shape, including its genuine up-then-down route to Reg-3's
// campuses. Reg-1 sits above Reg-2, so down-only claims are exactly what
// it is allowed to import from that neighbor.
std::unique_ptr<EcmaLeakRun> run_ecma_leak(bool defended) {
  auto run = std::make_unique<EcmaLeakRun>();
  run->fig = build_figure1();
  run->order = compute_partial_order(run->fig.topo, {});
  EXPECT_TRUE(run->order.ok);
  run->net = std::make_unique<Network>(run->engine, run->fig.topo);
  for (const Ad& ad : run->fig.topo.ads()) {
    EcmaConfig config;
    config.stub = ad.role == AdRole::kStub || ad.role == AdRole::kMultiHomed;
    config.receiver_order_check = defended;
    auto node = std::make_unique<EcmaNode>(&run->order.order, config);
    run->nodes.push_back(node.get());
    run->net->attach(ad.id, std::move(node));
  }
  ByzantineSpec leak;
  leak.ad = run->fig.regional[2];
  leak.kind = Misbehavior::kRouteLeak;
  leak.start_ms = 0.0;
  run->net->set_misbehavior(leak);
  run->net->start_all();
  run->engine.run();
  return run;
}

TEST(EcmaReceiverDefense, UndefendedReceiverAcceptsLeakedDownThenUpRoute) {
  const auto run = run_ecma_leak(/*defended=*/false);
  EcmaNode* reg1 = run->nodes[run->fig.regional[1].v];
  // A packet at Reg-1 that has already gone down may only follow
  // down-only routes. Honestly there is none toward campus-6 (it needs
  // an up hop through a backbone); the leak fabricates one via Reg-2.
  const auto fwd =
      reg1->forward(run->fig.campus[6], Qos::kDefault, /*gone_down=*/true);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->via, run->fig.regional[2]);
  EXPECT_EQ(run->net->total().defense_rejections, 0u);
}

TEST(EcmaReceiverDefense, DefendedReceiverRejectsLeakedDownThenUpRoute) {
  const auto run = run_ecma_leak(/*defended=*/true);
  EcmaNode* reg1 = run->nodes[run->fig.regional[1].v];
  // The static down-links-only distance from Reg-2 to campus-6 is
  // infinite, so any finite down-only claim is a provable lie.
  const auto fwd =
      reg1->forward(run->fig.campus[6], Qos::kDefault, /*gone_down=*/true);
  EXPECT_FALSE(fwd.has_value());
  EXPECT_GT(run->net->total().defense_rejections, 0u);

  // Truthful down-only claims from the same (lying) neighbor still pass:
  // campus-4 really is one down hop below Reg-2.
  const auto ok =
      reg1->forward(run->fig.campus[4], Qos::kDefault, /*gone_down=*/true);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->via, run->fig.regional[2]);
}

// --- chaos-harness Byzantine layer ------------------------------------

ChaosParams byzantine_params(bool defended) {
  ChaosParams params;
  params.seed = 11;
  params.horizon_ms = 6'000.0;
  params.churn_fraction = 0.0;  // every violation is attributable
  params.faults = FaultConfig{};
  params.policy_mode = PolicyMode::kProviderCustomer;
  params.byzantine.count = 4;
  params.byzantine.defended = defended;
  params.audit_sample_pairs = 0;  // audit every honest ordered pair
  return params;
}

// Pins recorded on commit 8102046 (see tests/pins.hpp).
const std::map<std::string, RunPin> kDefendedPins = {
    {"ecma", {0x2beba019fc2b52e2ull, 7132, 3, 0}},
    {"idrp", {0x1a5388ab644ecca6ull, 6706, 1, 0}},
    {"ls-hbh", {0x5fc484b9db70ae58ull, 11755, 0, 0}},
    {"orwg", {0xcd8a9badac8db590ull, 11755, 0, 0}}};
const std::map<std::string, RunPin> kUndefendedPins = {
    {"ecma", {0x9c98a64e5759484eull, 9017, 0, 0}},
    {"idrp", {0xfe945fad0a0ce5b8ull, 8810, 0, 0}},
    {"ls-hbh", {0x82a65a97ee21711aull, 104512, 19, 57}},
    {"orwg", {0x59132f82c4eb834eull, 15499, 0, 0}}};

TEST(ByzantineChaos, DefendedRunsContainEveryDesignPoint) {
  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    const ChaosResult r = run_chaos(arch, byzantine_params(true));
    expect_pinned(r, kDefendedPins.at(arch));
    EXPECT_TRUE(r.defended);
    EXPECT_EQ(r.byzantine.size(), 4u);
    EXPECT_GT(r.defense_rejections, 0u);
    EXPECT_TRUE(r.audit.contained());
    // No persistent compliance violation survives for any honest pair.
    EXPECT_EQ(r.audit.final_pollution, 0.0);
    EXPECT_EQ(r.invariants.persistent_violations(), 0u);
  }
}

TEST(ByzantineChaos, UndefendedRunsShowBlastRadius) {
  std::uint64_t violation_pairs = 0;
  double worst_pollution = 0.0;
  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    const ChaosResult r = run_chaos(arch, byzantine_params(false));
    expect_pinned(r, kUndefendedPins.at(arch));
    EXPECT_FALSE(r.defended);
    EXPECT_EQ(r.defense_rejections, 0u);
    violation_pairs += r.audit.violation_pairs();
    if (r.audit.peak_pollution > worst_pollution) {
      worst_pollution = r.audit.peak_pollution;
    }
  }
  // The same schedule that defended runs contain must, undefended, do
  // real damage -- otherwise the attacks are not actually wired in.
  EXPECT_GT(violation_pairs, 0u);
  EXPECT_GT(worst_pollution, 0.0);
}

TEST(ByzantineChaos, DeterministicAcrossRepeats) {
  for (const bool defended : {false, true}) {
    SCOPED_TRACE(defended ? "defended" : "undefended");
    const ChaosResult a = run_chaos("ls-hbh", byzantine_params(defended));
    const ChaosResult b = run_chaos("ls-hbh", byzantine_params(defended));
    EXPECT_EQ(a.counter_fingerprint, b.counter_fingerprint);
    EXPECT_EQ(a.audit.violation_pairs(), b.audit.violation_pairs());
    EXPECT_EQ(a.audit.peak_pollution, b.audit.peak_pollution);
  }
}

TEST(ByzantineChaos, ScheduleHonorsRequestedKinds) {
  ChaosParams params = byzantine_params(false);
  params.byzantine.count = 2;
  params.byzantine.kinds = {Misbehavior::kBlackHole};
  const ChaosResult r = run_chaos("idrp", params);
  ASSERT_EQ(r.byzantine.size(), 2u);
  for (const ByzantineSpec& spec : r.byzantine) {
    EXPECT_EQ(spec.kind, Misbehavior::kBlackHole);
    EXPECT_FALSE(spec.victim.valid());  // victims are for false-origin only
  }
}

TEST(ByzantineChaos, ByzantineScheduleIsIndependentOfChurnStreams) {
  // The Byzantine draw must not perturb the churn/fault schedule: a run
  // with byzantine.count == 0 keeps the exact counters of the seed's
  // plain chaos run regardless of Byzantine parameters being present.
  ChaosParams plain;
  plain.seed = 3;
  plain.horizon_ms = 4'000.0;
  ChaosParams with_knobs = plain;
  with_knobs.byzantine.defended = true;
  with_knobs.byzantine.kinds = {Misbehavior::kRouteLeak};  // count stays 0
  const ChaosResult a = run_chaos("ecma", plain);
  const ChaosResult b = run_chaos("ecma", with_knobs);
  EXPECT_EQ(a.counter_fingerprint, b.counter_fingerprint);
  EXPECT_TRUE(b.byzantine.empty());
}

// --- InvariantMonitor persistent dedupe -------------------------------

struct IdleNode final : Node {
  void on_message(AdId, std::span<const std::uint8_t>) override {}
};

TEST(InvariantMonitorDedupe, PersistentViolationCountedOncePerPairAndKind) {
  Figure1 fig = build_figure1();
  Engine engine;
  Network net(engine, fig.topo);
  for (const Ad& ad : fig.topo.ads()) {
    net.attach(ad.id, std::make_unique<IdleNode>());
  }
  InvariantConfig config;
  config.cadence_ms = 10.0;
  config.reconverge_window_ms = 1.0;
  config.sample_pairs = 0;  // every ordered pair, every sweep
  // Every probe black-holes while every pair is reachable: the maximal
  // always-broken network.
  InvariantMonitor monitor(net, config, [](AdId src, AdId) {
    Probe probe;
    probe.outcome = ProbeOutcome::kBlackHole;
    probe.path = {src};
    return probe;
  });
  monitor.start(100.0);
  engine.run();

  const std::uint64_t n = fig.topo.ad_count();
  const std::uint64_t pairs = n * (n - 1);
  const InvariantStats& stats = monitor.stats();
  EXPECT_GT(stats.sweeps, 1u);
  // Re-observing the same broken pair on later sweeps must not inflate
  // the persistent count: one per (src, dst, kind), not sweeps * pairs.
  EXPECT_EQ(stats.persistent_black_holes, pairs);
  EXPECT_EQ(stats.persistent_violations(), pairs);
}

}  // namespace
}  // namespace idr
