// Chaos layer: crash/restart semantics, keepalive-based failure
// detection without the link-state oracle, invariant monitoring, and
// reliable transport under combined faults.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "core/design_harness.hpp"
#include "pins.hpp"
#include "policy/generator.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"
#include "transport/gbn.hpp"

namespace idr {
namespace {

// Walk IDRP FIBs hop by hop; nullopt if the walk black-holes or loops.
std::optional<std::vector<AdId>> idrp_walk(Network& net, const Topology& topo,
                                           AdId src, AdId dst) {
  FlowSpec flow;
  flow.src = src;
  flow.dst = dst;
  std::vector<AdId> path{src};
  std::vector<bool> seen(topo.ad_count(), false);
  seen[src.v] = true;
  AdId cur = src;
  while (cur != dst) {
    auto* node = static_cast<IdrpNode*>(net.node(cur));
    if (!node) return std::nullopt;
    const AdId prev = path.size() >= 2 ? path[path.size() - 2] : kNoAd;
    const auto next = node->forward(flow, prev);
    if (!next || seen[next->v]) return std::nullopt;
    seen[next->v] = true;
    path.push_back(*next);
    cur = *next;
  }
  return path;
}

TEST(Chaos, KeepaliveDetectsCrashAndRoutesReconverge) {
  // No link-state oracle at all: neighbor death must be inferred from
  // keepalive silence, rebirth from hearing the restarted node.
  Figure1 fig = build_figure1();
  const PolicySet policies = make_open_policies(fig.topo);
  Engine engine;
  Network net(engine, fig.topo);
  net.set_node_factory([&policies](AdId) -> std::unique_ptr<Node> {
    IdrpConfig config;
    config.periodic_refresh_ms = 200.0;
    return std::make_unique<IdrpNode>(&policies, config);
  });
  for (const Ad& ad : fig.topo.ads()) {
    net.attach(ad.id, std::make_unique<IdrpNode>(&policies));
  }
  net.set_link_notifications(false);
  net.set_keepalive(KeepaliveConfig{.interval_ms = 20.0,
                                    .miss_threshold = 3});
  net.start_all();
  engine.run_until(500.0);

  // Converged: a campus under regional[2] reaches a campus under
  // regional[0].
  const AdId src = fig.campus[4];
  const AdId dst = fig.campus[0];
  ASSERT_TRUE(idrp_walk(net, fig.topo, src, dst).has_value());

  // regional[0] crashes; its campuses become genuinely unreachable.
  net.crash(fig.regional[0]);
  engine.run_until(1'500.0);
  auto* backbone =
      static_cast<IdrpNode*>(net.node(fig.backbone_west));
  ASSERT_NE(backbone, nullptr);
  EXPECT_FALSE(backbone->neighbor_alive(fig.regional[0]))
      << "hold timer should have expired from keepalive silence";
  FlowSpec flow;
  flow.src = fig.backbone_west;
  flow.dst = dst;
  EXPECT_FALSE(backbone->forward(flow).has_value())
      << "routes through the crashed AD must be withdrawn";

  // Cold restart: the backed-off probes revive the adjacency, full-table
  // exchanges rebuild its RIB, routes return.
  net.restart(fig.regional[0]);
  engine.run_until(3'000.0);
  EXPECT_TRUE(backbone->neighbor_alive(fig.regional[0]));
  EXPECT_TRUE(idrp_walk(net, fig.topo, src, dst).has_value())
      << "routes must reconverge after the cold restart";
}

TEST(Chaos, CrashedNodeLosesStateAndGenerationAdvances) {
  Figure1 fig = build_figure1();
  const PolicySet policies = make_open_policies(fig.topo);
  Engine engine;
  Network net(engine, fig.topo);
  net.set_node_factory([&policies](AdId) {
    return std::make_unique<IdrpNode>(&policies);
  });
  for (const Ad& ad : fig.topo.ads()) {
    net.attach(ad.id, std::make_unique<IdrpNode>(&policies));
  }
  net.start_all();
  engine.run();

  auto* before = static_cast<IdrpNode*>(net.node(fig.regional[1]));
  EXPECT_GT(before->loc_rib_routes(), 1u);
  const std::uint64_t gen = net.generation(fig.regional[1]);

  net.crash(fig.regional[1]);
  EXPECT_FALSE(net.alive(fig.regional[1]));
  EXPECT_EQ(net.node(fig.regional[1]), nullptr);
  EXPECT_EQ(net.generation(fig.regional[1]), gen + 1);
  EXPECT_EQ(net.crashes(), 1u);

  net.restart(fig.regional[1]);
  ASSERT_TRUE(net.alive(fig.regional[1]));
  auto* after = static_cast<IdrpNode*>(net.node(fig.regional[1]));
  // Cold start: the fresh node holds at most its own self-route (the
  // allocator may legally reuse the freed block, so compare state, not
  // addresses -- `before` is dangling).
  EXPECT_LE(after->loc_rib_routes(), 1u);
  engine.run();
  EXPECT_GT(after->loc_rib_routes(), 1u)
      << "cold-restarted node rebuilds its RIB from neighbor updates";
}

TEST(Chaos, FaultScheduleIsDeterministicInSeed) {
  auto one_run = [](std::uint64_t seed) {
    Figure1 fig = build_figure1();
    const PolicySet policies = make_open_policies(fig.topo);
    Engine engine;
    Network net(engine, fig.topo);
    for (const Ad& ad : fig.topo.ads()) {
      net.attach(ad.id, std::make_unique<IdrpNode>(&policies));
    }
    FaultConfig faults;
    faults.corrupt_rate = 0.05;
    faults.duplicate_rate = 0.05;
    faults.reorder_rate = 0.10;
    faults.corrupt_deliver_fraction = 0.5;
    net.set_faults(faults, seed);
    net.start_all();
    engine.run();
    return net.total();
  };
  const Counters x = one_run(11);
  const Counters y = one_run(11);
  const Counters z = one_run(12);
  EXPECT_EQ(x.msgs_delivered, y.msgs_delivered);
  EXPECT_EQ(x.msgs_corrupted, y.msgs_corrupted);
  EXPECT_EQ(x.msgs_duplicated, y.msgs_duplicated);
  EXPECT_EQ(x.msgs_reordered, y.msgs_reordered);
  EXPECT_EQ(x.malformed_dropped, y.malformed_dropped);
  EXPECT_GT(x.msgs_corrupted, 0u);
  EXPECT_GT(x.msgs_duplicated, 0u);
  EXPECT_NE(x.msgs_delivered, z.msgs_delivered);
}

// Soak pins recorded on commit 8102046 (see tests/pins.hpp).
const std::map<std::string, RunPin> kSoakPins = {
    {"ecma", {0x15fafe3f4fb52687ull, 6749, 199, 0}},
    {"idrp", {0xfea9b33018512432ull, 5980, 101, 0}},
    {"ls-hbh", {0x6e367258f88e5711ull, 10712, 196, 0}},
    {"orwg", {0xf116e665ae3e59b4ull, 10712, 201, 0}}};

TEST(Chaos, SoakAllDesignPointsCleanAndDeterministic) {
  // The acceptance run in miniature: every design point through the full
  // chaos schedule (crashes, corruption, duplication, reordering, no
  // oracle), zero persistent invariant violations, same seed => byte
  // identical counters.
  ChaosParams params;
  params.seed = 3;
  params.horizon_ms = 4'000.0;
  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    const ChaosResult first = run_chaos(arch, params);
    const ChaosResult second = run_chaos(arch, params);
    expect_pinned(first, kSoakPins.at(arch));
    EXPECT_GT(first.invariants.sweeps, 0u);
    EXPECT_GT(first.invariants.probes, 0u);
    EXPECT_GT(first.node_crashes, 0u) << "schedule must crash somebody";
    EXPECT_GT(first.totals.msgs_corrupted, 0u);
    EXPECT_GT(first.totals.msgs_duplicated, 0u);
    EXPECT_GT(first.totals.msgs_reordered, 0u);
    EXPECT_EQ(first.invariants.persistent_violations(), 0u)
        << "loops=" << first.invariants.persistent_loops
        << " black holes=" << first.invariants.persistent_black_holes
        << " stale=" << first.invariants.persistent_stale_routes;
    EXPECT_EQ(first.counter_fingerprint, second.counter_fingerprint)
        << "chaos must be a pure function of the seed";
  }
}

TEST(Chaos, GbnDeliversInOrderUnderCombinedFaults) {
  // Go-Back-N over ORWG Policy Routes while the network loses, mangles,
  // duplicates and reorders frames and a mid-path link flaps: every
  // message arrives exactly once and in order, or the connection
  // honestly reports failed(). Never silent loss, never a duplicate
  // delivery.
  Figure1 fig = build_figure1();
  const PolicySet policies = make_open_policies(fig.topo);
  Engine engine;
  Network net(engine, fig.topo);
  std::vector<OrwgNode*> nodes;
  for (const Ad& ad : fig.topo.ads()) {
    auto node = std::make_unique<OrwgNode>(&policies);
    nodes.push_back(node.get());
    net.attach(ad.id, std::move(node));
  }
  net.start_all();
  engine.run();  // control plane converges loss-free

  transport::TransportHost sender(*nodes[fig.campus[0].v], engine);
  transport::TransportHost receiver(*nodes[fig.campus[6].v], engine);
  std::vector<std::string> delivered;
  receiver.connect(fig.campus[0])
      .set_message_handler([&](std::vector<std::uint8_t> msg) {
        delivered.emplace_back(msg.begin(), msg.end());
      });
  transport::Connection& conn = sender.connect(fig.campus[6]);
  conn.send({'w'});
  engine.run();
  ASSERT_EQ(delivered.size(), 1u);

  FaultConfig faults;
  faults.loss_rate = 0.10;
  faults.corrupt_rate = 0.10;  // checksum-dropped: behaves as extra loss
  faults.corrupt_deliver_fraction = 0.0;
  faults.duplicate_rate = 0.10;
  faults.reorder_rate = 0.25;
  faults.reorder_extra_ms = 4.0;
  net.set_faults(faults, 77);

  // A link on the PR path flaps twice mid-transfer.
  FailureInjector injector(net);
  const LinkId mid = *fig.topo.find_link(fig.regional[0], fig.backbone_west);
  injector.fail_link_at(mid, 50.0, 300.0);
  injector.fail_link_at(mid, 1'000.0, 200.0);

  const int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    conn.send({static_cast<std::uint8_t>('a' + (i % 26))});
  }
  engine.run();

  EXPECT_GT(net.total().msgs_corrupted, 0u);
  EXPECT_GT(net.total().msgs_duplicated, 0u);
  if (conn.failed()) {
    // Honest failure: whatever did arrive is an in-order prefix.
    EXPECT_LE(delivered.size(), 1u + kMessages);
  } else {
    ASSERT_EQ(delivered.size(), 1u + kMessages);
  }
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    const char expected =
        static_cast<char>('a' + ((static_cast<int>(i) - 1) % 26));
    EXPECT_EQ(delivered[i], std::string(1, expected))
        << "out-of-order or duplicate delivery at index " << i;
  }
}

}  // namespace
}  // namespace idr
