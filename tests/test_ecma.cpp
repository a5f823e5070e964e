#include <gtest/gtest.h>

#include <memory>

#include "proto/ecma/ecma_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"

namespace idr {
namespace {

TEST(PartialOrder, StructuralConstraintsFollowHierarchy) {
  const Figure1 fig = build_figure1();
  const auto constraints = structural_constraints(fig.topo);
  // Every hierarchical/bypass link between different classes yields one.
  for (const OrderConstraint& c : constraints) {
    EXPECT_TRUE(c.structural);
    EXPECT_LT(static_cast<int>(fig.topo.ad(c.above).cls),
              static_cast<int>(fig.topo.ad(c.below).cls));
  }
}

TEST(PartialOrder, ComputesWithoutPolicyConstraints) {
  const Figure1 fig = build_figure1();
  const OrderResult result = compute_partial_order(fig.topo, {});
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.negotiation_rounds, 0u);
  // Backbones above regionals above campuses.
  EXPECT_LT(result.order.rank(fig.backbone_west),
            result.order.rank(fig.regional[0]));
  EXPECT_LT(result.order.rank(fig.regional[0]),
            result.order.rank(fig.campus[0]));
}

TEST(PartialOrder, PolicyConstraintShiftsRank) {
  const Figure1 fig = build_figure1();
  // Reg-0 demands to sit above Reg-1 (e.g. it refuses to be transit for
  // its peer). Satisfiable: no conflict.
  std::vector<OrderConstraint> policy{{fig.regional[0], fig.regional[1]}};
  const OrderResult result = compute_partial_order(fig.topo, policy);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.dropped.empty());
  EXPECT_LT(result.order.rank(fig.regional[0]),
            result.order.rank(fig.regional[1]));
}

TEST(PartialOrder, ConflictingPoliciesForceNegotiation) {
  const Figure1 fig = build_figure1();
  // Mutually unsatisfiable: R0 above R1 and R1 above R0.
  std::vector<OrderConstraint> policy{
      {fig.regional[0], fig.regional[1]},
      {fig.regional[1], fig.regional[0]},
  };
  const OrderResult result = compute_partial_order(fig.topo, policy);
  ASSERT_TRUE(result.ok);  // resolved by dropping one
  EXPECT_EQ(result.dropped.size(), 1u);
  EXPECT_EQ(result.negotiation_rounds, 1u);
}

TEST(PartialOrder, UpDownOrientationIsAntisymmetricAndTotal) {
  const Figure1 fig = build_figure1();
  const OrderResult result = compute_partial_order(fig.topo, {});
  for (const Link& l : fig.topo.links()) {
    EXPECT_NE(result.order.is_up(l.a, l.b), result.order.is_up(l.b, l.a));
  }
}

class EcmaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    order_ = compute_partial_order(fig_.topo, {});
    ASSERT_TRUE(order_.ok);
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      EcmaConfig config;
      config.stub =
          ad.role == AdRole::kStub || ad.role == AdRole::kMultiHomed;
      auto node = std::make_unique<EcmaNode>(&order_.order, config);
      nodes_.push_back(node.get());
      net_->attach(ad.id, std::move(node));
    }
    net_->start_all();
    engine_.run();
  }

  // Walks the data plane with the gone-down marker, as a policy gateway
  // chain would.
  std::optional<std::vector<AdId>> route(AdId src, AdId dst,
                                         Qos qos = Qos::kDefault) {
    std::vector<AdId> path{src};
    bool gone_down = false;
    AdId cur = src;
    std::size_t guard = 0;
    while (cur != dst) {
      if (++guard > fig_.topo.ad_count()) return std::nullopt;
      const auto fwd = nodes_[cur.v]->forward(dst, qos, gone_down);
      if (!fwd) return std::nullopt;
      gone_down = gone_down || fwd->sets_gone_down;
      path.push_back(fwd->via);
      cur = fwd->via;
    }
    return path;
  }

  Figure1 fig_;
  OrderResult order_;
  Engine engine_;
  std::unique_ptr<Network> net_;
  std::vector<EcmaNode*> nodes_;
};

TEST_F(EcmaTest, AllPairsReachableOnFigure1) {
  for (const Ad& src : fig_.topo.ads()) {
    for (const Ad& dst : fig_.topo.ads()) {
      if (src.id == dst.id) continue;
      const auto path = route(src.id, dst.id);
      ASSERT_TRUE(path.has_value())
          << fig_.topo.ad(src.id).name << " -> "
          << fig_.topo.ad(dst.id).name;
    }
  }
}

TEST_F(EcmaTest, RoutesAreUpDownShaped) {
  for (const Ad& src : fig_.topo.ads()) {
    for (const Ad& dst : fig_.topo.ads()) {
      if (src.id == dst.id) continue;
      const auto path = route(src.id, dst.id);
      ASSERT_TRUE(path.has_value());
      // Once a down link is traversed, no up link may follow.
      bool went_down = false;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        const bool up = order_.order.is_up((*path)[i], (*path)[i + 1]);
        if (up) {
          EXPECT_FALSE(went_down) << "valley in ECMA route";
        } else {
          went_down = true;
        }
      }
    }
  }
}

TEST_F(EcmaTest, RoutesNeverTransitStubs) {
  for (const Ad& src : fig_.topo.ads()) {
    for (const Ad& dst : fig_.topo.ads()) {
      if (src.id == dst.id) continue;
      const auto path = route(src.id, dst.id);
      ASSERT_TRUE(path.has_value());
      for (std::size_t i = 1; i + 1 < path->size(); ++i) {
        const AdRole role = fig_.topo.ad((*path)[i]).role;
        EXPECT_NE(role, AdRole::kStub);
        EXPECT_NE(role, AdRole::kMultiHomed);
      }
    }
  }
}

TEST_F(EcmaTest, RoutesAreLoopFree) {
  for (const Ad& src : fig_.topo.ads()) {
    const auto path = route(src.id, fig_.campus[7]);
    if (!path) continue;
    std::set<std::uint32_t> seen;
    for (AdId ad : *path) EXPECT_TRUE(seen.insert(ad.v).second);
  }
}

TEST_F(EcmaTest, ReconvergesAfterFailureWithoutCountToInfinity) {
  const auto before = net_->total().msgs_sent;
  net_->set_link_state(
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east), false);
  engine_.run();
  const auto recon_msgs = net_->total().msgs_sent - before;
  // Partial-order DV converges without bouncing to a metric ceiling: the
  // message count stays modest (well under infinity * nodes).
  EXPECT_LT(recon_msgs, 64u * fig_.topo.ad_count());

  // The paper's expressiveness price, demonstrated: a physical detour to
  // the east (Reg-1 > Reg-2 lateral, then UP into BB-East) exists, but
  // its shape is down-then-up, which the up/down rule forbids. ECMA
  // loses east-west connectivity toward Reg-3's campuses even though the
  // internet is not partitioned.
  EXPECT_FALSE(route(fig_.campus[0], fig_.campus[6]).has_value());

  // Flows whose detour stays shape-valid (up, lateral-down, down) keep
  // working.
  const auto ok = route(fig_.campus[2], fig_.campus[4]);
  ASSERT_TRUE(ok.has_value());
  bool crosses_lateral = false;
  for (std::size_t i = 0; i + 1 < ok->size(); ++i) {
    if (((*ok)[i] == fig_.regional[1] && (*ok)[i + 1] == fig_.regional[2]) ||
        ((*ok)[i] == fig_.regional[2] && (*ok)[i + 1] == fig_.regional[1])) {
      crosses_lateral = true;
    }
  }
  EXPECT_TRUE(crosses_lateral);
}

TEST_F(EcmaTest, LateralLinkUsedWhereShapeAllows) {
  // campus2 (under Reg-1) to campus4 (under Reg-2): the lateral
  // Reg-1 -- Reg-2 link gives an up-down route that avoids backbones.
  const auto path = route(fig_.campus[2], fig_.campus[4]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 4u);  // campus2, Reg-1, Reg-2, campus4
}

TEST_F(EcmaTest, FibCountsPositive) {
  for (EcmaNode* node : nodes_) EXPECT_GT(node->fib_entries(), 0u);
}

}  // namespace
}  // namespace idr
