// Route-flap damping: FlapDamper state-machine unit tests (penalty
// accrual, exponential decay, suppress/reuse crossings, release
// bookkeeping, the max-penalty suppression bound) and an ECMA
// integration test that drives a flapping Figure 1 link with damping on
// vs off -- damping must cut the update churn while the released routes
// still reconverge to full reachability, and MRAI batching must compose
// with suppression rather than race it.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "proto/common/damping.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"

namespace idr {
namespace {

DampingConfig test_config() {
  DampingConfig config;
  config.enabled = true;
  config.half_life_ms = 500.0;
  return config;
}

constexpr std::uint64_t kKey = 42;

TEST(FlapDamper, SuppressionEngagesOnTheCrossingFlap) {
  FlapDamper damper(test_config());
  // 1000, then ~1871 (one fifth of a half-life of decay), then ~2629:
  // the third flap crosses the 2000 threshold and must report it.
  EXPECT_FALSE(damper.note_flap(kKey, 0.0));
  EXPECT_FALSE(damper.would_suppress(kKey, 0.0));
  EXPECT_FALSE(damper.note_flap(kKey, 100.0));
  EXPECT_FALSE(damper.would_suppress(kKey, 100.0));
  EXPECT_TRUE(damper.note_flap(kKey, 200.0));
  EXPECT_TRUE(damper.would_suppress(kKey, 200.0));
  EXPECT_EQ(damper.stats().flaps, 3u);
  EXPECT_EQ(damper.stats().suppress_events, 1u);
  // Further flaps on a suppressed route are recorded but do not report
  // another crossing (their churn is what suppression silences).
  EXPECT_FALSE(damper.note_flap(kKey, 300.0));
  EXPECT_EQ(damper.stats().suppress_events, 1u);
}

TEST(FlapDamper, PenaltyDecaysToReleaseAtTheAnalyticEta) {
  FlapDamper damper(test_config());
  damper.note_flap(kKey, 0.0);
  damper.note_flap(kKey, 100.0);
  damper.note_flap(kKey, 200.0);
  ASSERT_TRUE(damper.would_suppress(kKey, 200.0));

  // eta = last_flap + half_life * log2(penalty / reuse).
  const double penalty = 1'000.0 * std::exp2(-0.4) +
                         1'000.0 * std::exp2(-0.2) + 1'000.0;
  const SimTime eta = 200.0 + 500.0 * std::log2(penalty / 750.0);
  EXPECT_TRUE(damper.would_suppress(kKey, eta - 1.0));
  EXPECT_FALSE(damper.would_suppress(kKey, eta + 1.0));

  // next_release_eta agrees with the closed form.
  const SimTime reported = damper.next_release_eta(200.0);
  EXPECT_NEAR(reported, eta, 1e-6);

  // would_suppress is pure: the key is still in suppressed state, and
  // release_due is what performs (and counts) the release.
  EXPECT_EQ(damper.stats().reuse_events, 0u);
  EXPECT_EQ(damper.release_due(eta + 1.0), 1u);
  EXPECT_EQ(damper.stats().reuse_events, 1u);
  EXPECT_LT(damper.next_release_eta(eta + 1.0), 0.0);
  EXPECT_EQ(damper.release_due(eta + 2.0), 0u);
}

TEST(FlapDamper, MaxPenaltyBoundsSuppressionAfterTheLastFlap) {
  FlapDamper damper(test_config());
  // Hammer the route far past the cap.
  SimTime t = 0.0;
  for (int i = 0; i < 50; ++i, t += 10.0) damper.note_flap(kKey, t);
  const SimTime last = t - 10.0;
  // Bound: half_life * log2(max_penalty / reuse) after the last flap.
  const SimTime bound = 500.0 * std::log2(8'000.0 / 750.0);
  EXPECT_LE(damper.next_release_eta(last) - last, bound + 1e-6);
  EXPECT_FALSE(damper.would_suppress(kKey, last + bound + 1.0));
}

TEST(FlapDamper, DisabledDamperIsInert) {
  DampingConfig config = test_config();
  config.enabled = false;
  FlapDamper damper(config);
  EXPECT_FALSE(damper.note_flap(kKey, 0.0));
  EXPECT_FALSE(damper.note_flap(kKey, 1.0));
  EXPECT_FALSE(damper.note_flap(kKey, 2.0));
  EXPECT_FALSE(damper.would_suppress(kKey, 2.0));
  EXPECT_EQ(damper.stats().flaps, 0u);
}

// --- ECMA integration: flapping link, damping on vs off ----------------

struct EcmaWorld {
  Figure1 fig;
  OrderResult order;
  Engine engine;
  std::unique_ptr<Network> net;
  std::vector<EcmaNode*> nodes;
};

std::unique_ptr<EcmaWorld> make_world(bool damping) {
  auto w = std::make_unique<EcmaWorld>();
  w->fig = build_figure1();
  w->order = compute_partial_order(w->fig.topo, {});
  EXPECT_TRUE(w->order.ok);
  w->net = std::make_unique<Network>(w->engine, w->fig.topo);
  w->net->set_link_notifications(true);
  for (const Ad& ad : w->fig.topo.ads()) {
    EcmaConfig config;
    config.stub = ad.role == AdRole::kStub || ad.role == AdRole::kMultiHomed;
    // MRAI on: suppression decisions must hold inside batched windows.
    config.mrai_ms = 5.0;
    if (damping) {
      config.damping = test_config();
      config.damping.half_life_ms = 200.0;  // quick release for the test
    }
    auto node = std::make_unique<EcmaNode>(&w->order.order, config);
    w->nodes.push_back(node.get());
    w->net->attach(ad.id, std::move(node));
  }
  w->net->start_all();
  w->engine.run();
  EXPECT_TRUE(w->engine.empty());
  return w;
}

std::optional<std::vector<AdId>> walk(const EcmaWorld& w, AdId src,
                                      AdId dst) {
  std::vector<AdId> path{src};
  bool gone_down = false;
  AdId cur = src;
  std::size_t guard = 0;
  while (cur != dst) {
    if (++guard > w.fig.topo.ad_count()) return std::nullopt;
    const auto fwd = w.nodes[cur.v]->forward(dst, Qos::kDefault, gone_down);
    if (!fwd) return std::nullopt;
    gone_down = gone_down || fwd->sets_gone_down;
    path.push_back(fwd->via);
    cur = fwd->via;
  }
  return path;
}

// Flap one regional uplink `cycles` times, then let the world settle
// (release timers included); returns update messages sent after cold
// convergence.
std::uint64_t flap_and_settle(EcmaWorld& w, std::uint32_t cycles) {
  const auto link =
      w.fig.topo.find_link(w.fig.backbone_west, w.fig.regional[0]);
  EXPECT_TRUE(link.has_value());
  const std::uint64_t before = w.net->total().msgs_sent;
  SimTime t = w.engine.now();
  for (std::uint32_t i = 0; i < cycles; ++i) {
    t += 40.0;
    w.engine.at(t, [&w, link] { w.net->set_link_state(*link, false); });
    t += 40.0;
    w.engine.at(t, [&w, link] { w.net->set_link_state(*link, true); });
  }
  w.engine.run();
  EXPECT_TRUE(w.engine.empty());
  return w.net->total().msgs_sent - before;
}

TEST(EcmaDamping, CutsFlapChurnAndStillReconverges) {
  auto undamped = make_world(/*damping=*/false);
  auto damped = make_world(/*damping=*/true);
  const std::uint64_t churn_off = flap_and_settle(*undamped, 8);
  const std::uint64_t churn_on = flap_and_settle(*damped, 8);

  EXPECT_LT(churn_on, churn_off)
      << "damping must reduce update churn under a flapping link";

  // Both worlds must end fully reconverged: the damped one's releases
  // re-advertise every suppressed route once the penalty decays.
  for (const Ad& src : damped->fig.topo.ads()) {
    for (const Ad& dst : damped->fig.topo.ads()) {
      if (src.id == dst.id) continue;
      EXPECT_TRUE(walk(*damped, src.id, dst.id).has_value())
          << "damped: " << damped->fig.topo.ad(src.id).name << " -> "
          << damped->fig.topo.ad(dst.id).name;
      EXPECT_TRUE(walk(*undamped, src.id, dst.id).has_value())
          << "undamped: " << undamped->fig.topo.ad(src.id).name << " -> "
          << undamped->fig.topo.ad(dst.id).name;
    }
  }

  // The damper actually engaged (otherwise the churn comparison above
  // is vacuous) and nothing is left suppressed after the settle.
  std::uint64_t suppress_events = 0;
  std::size_t still_suppressed = 0;
  for (EcmaNode* node : damped->nodes) {
    suppress_events += node->damper().stats().suppress_events;
    still_suppressed +=
        node->damper().suppressed_count(damped->engine.now());
  }
  EXPECT_GT(suppress_events, 0u);
  EXPECT_EQ(still_suppressed, 0u);
}

}  // namespace
}  // namespace idr
